(* Design-space exploration over the simd unroll factor — the extension the
   paper names as future work ("design space exploration could be added in
   the future to automatically find the best combination of directives and
   their parameters").

   For a kernel loop the model predicts, per candidate unroll factor U:
     - throughput: cycles per original iteration (from the schedule rules),
     - cost: kernel LUT usage (from the resource estimator).
   The explorer returns the Pareto frontier and the smallest U achieving
   the best throughput within an optional LUT budget. *)

type candidate = {
  unroll : int;
  cycles_per_iteration : float;
  kernel_luts : int;
  within_budget : bool;
}

type result = {
  candidates : candidate list;  (** Ascending unroll. *)
  pareto : candidate list;
      (** No other candidate is faster with fewer LUTs. *)
  best : candidate option;
      (** Fastest within budget; smallest unroll breaks ties. *)
}

(* Re-derive a loop's cost under a different unroll factor using the same
   rules as Schedule.analyse_loop. *)
let cycles_with_unroll spec (l : Schedule.loop_info) unroll =
  let open Fpga_spec in
  if not l.Schedule.pipelined then l.Schedule.cycles_per_iteration
  else begin
    let busiest =
      List.fold_left (fun acc (_, r, w) -> max acc (r + w)) 0
        l.Schedule.port_accesses
    in
    let beat =
      if spec.burst_inference then spec.burst_beat_cycles
      else spec.axi_share_cycles
    in
    let serial = unroll * busiest * beat in
    let chain =
      if l.Schedule.rmw_port && not spec.burst_inference then
        spec.rmw_chain_cycles
      else 0
    in
    let ii_total = max (max serial chain) (unroll * l.Schedule.ii_directive) in
    float_of_int (max ii_total 1) /. float_of_int unroll
  end

let luts_with_unroll spec ~frontend (ks : Schedule.kernel_schedule)
    (l : Schedule.loop_info) unroll =
  (* replace the loop's unroll and re-estimate *)
  let rec patch (x : Schedule.loop_info) =
    if x.Schedule.loop_key = l.Schedule.loop_key then
      { x with Schedule.unroll }
    else { x with Schedule.nested = List.map patch x.Schedule.nested }
  in
  let ks' = { ks with Schedule.loops = List.map patch ks.Schedule.loops } in
  (Resources.estimate ~frontend spec ks').Resources.kernel.Resources.luts

(* Evaluate one candidate factor: pure model arithmetic, with the
   observability left to the caller. *)
let evaluate spec ~frontend ?lut_budget ks l unroll =
  let kernel_luts = luts_with_unroll spec ~frontend ks l unroll in
  let within_budget =
    match lut_budget with Some b -> kernel_luts <= b | None -> true
  in
  {
    unroll;
    cycles_per_iteration = cycles_with_unroll spec l unroll;
    kernel_luts;
    within_budget;
  }

let explore ~spec ?(frontend = Resources.Mlir_flow)
    ?(factors = [ 1; 2; 4; 8; 10; 16; 32 ]) ?lut_budget ks
    (l : Schedule.loop_info) =
  Ftn_obs.Span.with_span_sp ~name:"dse.explore"
    ~attrs:[ ("kernel", ks.Schedule.fn_name) ]
    (fun span ->
  let candidates =
    List.map
      (evaluate spec ~frontend ?lut_budget ks l)
      (List.sort_uniq compare factors)
  in
  let dominates d c =
    d.cycles_per_iteration <= c.cycles_per_iteration
    && d.kernel_luts <= c.kernel_luts
    && (d.cycles_per_iteration < c.cycles_per_iteration
       || d.kernel_luts < c.kernel_luts)
  in
  let pareto =
    List.filter
      (fun c -> not (List.exists (fun d -> dominates d c) candidates))
      candidates
  in
  let best =
    List.fold_left
      (fun acc c ->
        if not c.within_budget then acc
        else
          match acc with
          | None -> Some c
          | Some b ->
            if
              c.cycles_per_iteration < b.cycles_per_iteration -. 1e-9
              || (Float.abs (c.cycles_per_iteration -. b.cycles_per_iteration)
                  < 1e-9
                 && c.unroll < b.unroll)
            then Some c
            else acc)
      None candidates
  in
  Ftn_obs.Metrics.incr ~by:(List.length candidates) "dse.candidates";
  (match best with
  | Some b ->
    Ftn_obs.Metrics.set_gauge "dse.best_unroll" (float_of_int b.unroll);
    Ftn_obs.Span.set_attr span ~key:"best_unroll" (string_of_int b.unroll)
  | None -> ());
  Ftn_obs.Span.set_attr span ~key:"candidates"
    (string_of_int (List.length candidates));
  { candidates; pareto; best })

(* Convenience: explore the first pipelined loop of a kernel. *)
let explore_kernel ~spec ?frontend ?factors ?lut_budget ks =
  match
    List.find_opt
      (fun (l : Schedule.loop_info) -> l.Schedule.pipelined)
      (Schedule.flatten_loops ks.Schedule.loops)
  with
  | Some l -> Some (explore ~spec ?frontend ?factors ?lut_budget ks l)
  | None -> None

let pp_candidate fmt c =
  Fmt.pf fmt "unroll=%2d  %7.2f cycles/iter  %6d kernel LUTs%s" c.unroll
    c.cycles_per_iteration c.kernel_luts
    (if c.within_budget then "" else "  (over budget)")

let pp fmt r =
  List.iter
    (fun c ->
      let mark = if List.memq c r.pareto then "*" else " " in
      Fmt.pf fmt " %s %a@." mark pp_candidate c)
    r.candidates;
  match r.best with
  | Some b -> Fmt.pf fmt " best: %a@." pp_candidate b
  | None -> Fmt.pf fmt " best: none within budget@."
