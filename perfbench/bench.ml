(* perfbench: the layered benchmark of `ftnc run`.

   One process runs one workload on one domain. A work unit is
   - on saxpy_1m and compile_k32: Fortran text -> Compiler.compile ->
     Compiler.synthesise -> Executor.run -> printed output (Run.run);
   - on queue_2k: one batch: compile and synthesise once, then 2000 jobs
     through Jobs.run on 4 simulated devices (Run.run_jobs, plus per-job
     dependencies and seeded transient faults).

   With --trace 0 the units run as the program runs them and the
   end-to-end metrics are reported. With --trace 1 untraced units
   alternate with traced ones; a traced unit replays the same work stage
   by stage through public functions, timing each call from outside the
   program, and the per-layer metrics are medians over traced units.

   Every unit runs under a fresh span collector and diagnostics engine,
   as one `ftnc run` process would. Every unit's output, and every job's
   on queue_2k, is compared with the CPU reference (Run.run_cpu)
   computed during set-up; mismatches, exceptions, shed and dropped jobs
   count as failed. The benchmark exits non-zero without printing a
   result when a machine-independent number fails to repeat, when the
   traced replay diverges from the program, when the named layers
   attribute less than 95% of a traced unit's wall time, or when the
   live heap keeps growing across units.

   Wall-time metrics are reported at a reference host speed (see
   [reference_ms]); the raw medians are printed beside them. *)

open Ftn_ir
open Ftn_runtime
module Fs = Ftn_linpack.Fortran_sources
module Fault = Ftn_fault.Fault
module Span = Ftn_obs.Span
module Diag_engine = Ftn_diag.Diag_engine
module Compiler = Core.Compiler
module Options = Core.Options
module Backend = Ftn_backend.Backend
module Interp = Ftn_interp.Interp
module Intrinsics = Ftn_interp.Intrinsics

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt
let now = Unix.gettimeofday
let ms s = s *. 1e3

(* ---------- workloads ---------- *)

type job_input = {
  j_name : string;
  j_tenant : string;
  j_deps : string list;
  j_faults : Fault.plan option;
}

type inputs = {
  source : string;
  jobs : job_input array;  (** Empty on the single-context workloads. *)
}

let workloads = [ "saxpy_1m"; "compile_k32"; "queue_2k" ]
let queue_jobs = 2000
let dep_stride = 7
let fault_share = 0.05

let queue_config =
  { Jobs.default_config with Jobs.devices = 4; queue_depth = 8 }

(* saxpy_1m: per-element interpretation is ~95% of the unit and compile
   under 1%. compile_k32: the compiler layers are ~95% and the device
   run ~2 ms. queue_2k: the cost is fixed per request (a new context and
   interpreter state per job), and it is the only workload that enters
   the job queue, the scheduler and the fault-retry path.

   The seed draws which queue jobs carry a single-shot transient fault
   and of which kind. The single-context programs are fixed sizes of
   Fortran_sources, so their machine-independent numbers are the same
   under every seed. *)
let make_inputs workload seed =
  match workload with
  | "saxpy_1m" -> { source = Fs.saxpy ~n:1_000_000; jobs = [||] }
  | "compile_k32" -> { source = Fs.many_kernels ~kernels:32 ~n:64; jobs = [||] }
  | "queue_2k" ->
    let rng = Random.State.make [| 0x5eed; seed |] in
    let name i = Printf.sprintf "job%04d" i in
    let job i =
      let j_faults =
        if Random.State.float rng 1.0 < fault_share then
          let kind =
            if Random.State.bool rng then Fault.Transfer_error
            else Fault.Launch_failure
          in
          Some
            (Fault.plan ~seed
               [ Fault.rule ~persistence:Fault.Transient kind (Fault.Nth 1) ])
        else None
      in
      {
        j_name = name i;
        j_tenant = Printf.sprintf "t%d" (i mod 4);
        j_deps =
          (if i >= dep_stride && i mod dep_stride = 0 then
             [ name (i - dep_stride) ]
           else []);
        j_faults;
      }
    in
    { source = Fs.saxpy ~n:64; jobs = Array.init queue_jobs job }
  | w -> fail "unknown workload %S" w

let is_queue inputs = Array.length inputs.jobs > 0

let device_luts (b : Ftn_hlsim.Bitstream.t) =
  List.fold_left
    (fun acc k ->
      acc + k.Ftn_hlsim.Bitstream.kd_resources.Ftn_hlsim.Resources.kernel
              .Ftn_hlsim.Resources.luts)
    0 b.Ftn_hlsim.Bitstream.kernels

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least [beyond] samples above it:
   (value, percentile). *)
let tail ~beyond xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then fail "%d samples leave no tail with %d beyond" n beyond;
  let k = n - beyond in
  (a.(k - 1), 100. *. float_of_int k /. float_of_int n)

(* ---------- one unit ---------- *)

type exact = (string * string) list
(** Machine-independent numbers of a unit; they must repeat exactly. *)

type ran =
  | Single of Executor.result
  | Queue of Jobs.stats

type unit_result = {
  wall_s : float;
  compile_s : float;
  alloc_mw : float;
  attempted : int;
  failed : int;
  sim_device_ms : float;
  luts : int;
  exact : exact;
  output : string;  (** Everything the unit printed, in job order. *)
  ran : ran;
}

let fl x = Printf.sprintf "%h" x

(* A fresh span collector and diagnostics engine per unit: the isolation
   of one `ftnc run` process. *)
let isolated f =
  Span.with_collector (Span.create ()) (fun () -> f (Diag_engine.create ()))

let sum_results f (st : Jobs.stats) =
  List.fold_left (fun acc (_, r) -> acc + f r) 0 st.Jobs.results

(* Modelled device busy time, summed over the jobs that ran. *)
let busy_ms (st : Jobs.stats) =
  ms
    (List.fold_left
       (fun acc (_, r) -> acc +. r.Executor.device_time_s)
       0. st.Jobs.results)

let exact_of ran luts =
  let results f =
    match ran with
    | Single r -> f r
    | Queue st -> sum_results f st
  in
  let common =
    [
      ("device_luts", string_of_int luts);
      ("kernel_launches", string_of_int (results (fun r -> r.kernel_launches)));
      ("bytes_transferred",
       string_of_int (results (fun r -> r.bytes_transferred)));
      ("retries", string_of_int (results (fun r -> r.retries)));
      ("faults_injected", string_of_int (results (fun r -> r.faults_injected)));
    ]
  in
  match ran with
  | Single r ->
    ("sim_device_ms", fl (ms r.Executor.device_time_s))
    :: ("output", Digest.to_hex (Digest.string r.Executor.output))
    :: common
  | Queue st ->
    [
      ("sim_device_ms", fl (busy_ms st));
      ("sim_makespan_ms", fl (ms st.Jobs.elapsed_s));
      ("sim_p99_ms", fl (ms st.Jobs.p99_latency_s));
      ("jobs.run", string_of_int st.Jobs.jobs_run);
      ("jobs.shed", string_of_int st.Jobs.jobs_shed);
      ("jobs.dropped", string_of_int st.Jobs.jobs_dropped);
      ("output", Digest.to_hex (Digest.string st.Jobs.output));
    ]
    @ common

(* Executor.run, or its replay, over the unit's compiled program. *)
type runner =
  ?faults:Fault.plan ->
  ?sched:Scheduler.t ->
  ?device:Scheduler.device ->
  ?start_s:float ->
  unit ->
  Executor.result

(* Run the unit's host module once, or once per job through the queue
   (which has no fault device, so each job keeps its own plan). *)
let execute inputs ~diag (run : runner) =
  if not (is_queue inputs) then Single (run ())
  else
    let spec j =
      Jobs.job ~tenant:j.j_tenant ~deps:j.j_deps ~name:j.j_name
        (fun ?faults:_ ~sched ~device ~start_s () ->
          run ?faults:j.j_faults ~sched ~device ~start_s ())
    in
    Queue
      (Jobs.run ~config:queue_config ~diag
         (Array.to_list (Array.map spec inputs.jobs)))

let unit_result reference ~m0 ~t0 ~t1 bitstream ran =
  let t2 = now () in
  let alloc_mw = (Gc.minor_words () -. m0) /. 1e6 in
  let luts = device_luts bitstream in
  let attempted, failed, sim_device_ms, output =
    match ran with
    | Single r ->
      ( 1,
        (if String.equal r.Executor.output reference then 0 else 1),
        ms r.Executor.device_time_s,
        r.Executor.output )
    | Queue st ->
      (* Jobs whose output is missing (shed, dropped) or wrong. *)
      let ok =
        List.length
          (List.filter
             (fun (_, r) -> String.equal r.Executor.output reference)
             st.Jobs.results)
      in
      (queue_jobs, queue_jobs - ok, busy_ms st, st.Jobs.output)
  in
  {
    wall_s = t2 -. t0;
    compile_s = t1 -. t0;
    alloc_mw;
    attempted;
    failed;
    sim_device_ms;
    luts;
    exact = exact_of ran luts;
    output;
    ran;
  }

let run_unit inputs reference =
  isolated @@ fun diag ->
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let artifacts = Compiler.compile ~engine:diag inputs.source in
  let t1 = now () in
  let bitstream = Compiler.synthesise artifacts in
  let host = artifacts.Compiler.host in
  let run ?faults ?sched ?device ?start_s () =
    Executor.run ~diag ?faults ?sched ?device ?start_s ~host ~bitstream ()
  in
  unit_result reference ~m0 ~t0 ~t1 bitstream (execute inputs ~diag run)

(* A unit that raises counts all its work as failed. *)
let run_unit_counted inputs reference =
  try Ok (run_unit inputs reference) with
  | (Bench_failure _ | Out_of_memory | Stack_overflow) as e -> raise e
  | e -> Error (Printexc.to_string e)

(* ---------- the traced replay ---------- *)

(* Per-unit layer accounts: self wall time and minor-heap words per
   layer, and counters. *)
type layers = {
  secs : (string, float ref) Hashtbl.t;
  words : (string, float ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
}

let new_layers () =
  { secs = Hashtbl.create 64; words = Hashtbl.create 8; counts = Hashtbl.create 32 }

let bump tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl key (ref v)

let count l key n =
  match Hashtbl.find_opt l.counts key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace l.counts key (ref n)

let timed l key f =
  let t0 = now () in
  let r = f () in
  bump l.secs key (now () -. t0);
  r

let count_ops l key m =
  count l key (timed l "pass.count-ops" (fun () -> Pass.count_ops m))

let verify l m =
  timed l "verifier" (fun () -> Verifier.verify_exn m);
  count l "verifier.calls" 1

let run_passes l passes m =
  List.fold_left
    (fun m p ->
      let key = "pass." ^ Pass.name p in
      let m' = timed l key (fun () -> Pass.run p m) in
      count_ops l (key ^ ".ops_out") m';
      verify l m';
      m')
    m passes

let renumber l m =
  let m', _ = timed l "pass.renumber" (fun () -> Op.renumber m) in
  count_ops l "pass.renumber.ops_out" m';
  m'

(* Compiler.compile then Compiler.synthesise, stage by stage, with the
   default options: (host module, LLVM-IR text, bitstream). *)
let replay_compile l diag source =
  let fir =
    timed l "frontend" (fun () -> Ftn_frontend.Frontend.to_fir ~engine:diag source)
  in
  let core = timed l "frontend" (fun () -> Ftn_frontend.Fir_to_core.run fir) in
  count_ops l "frontend.ops_out" core;
  verify l core;
  let combined = run_passes l (Ftn_passes.Pipeline.host_passes ()) core in
  let split =
    timed l "pass.split-modules" (fun () -> Ftn_passes.Split_modules.run combined)
  in
  let host = split.Ftn_passes.Split_modules.host in
  count_ops l "pass.split-modules.ops_out" host;
  let device =
    match split.Ftn_passes.Split_modules.device with
    | Some d -> d
    | None -> fail "program has no offloaded region"
  in
  count_ops l "pass.split-modules.ops_out" device;
  let hls = renumber l (run_passes l (Ftn_passes.Pipeline.device_passes ()) device) in
  let ll = renumber l (run_passes l (Ftn_passes.Pipeline.device_llvm_passes ()) hls) in
  let o = Options.default in
  let backend = o.Options.backend in
  let emitted text = count l "codegen.bytes_out" (String.length text) in
  let ll = timed l "codegen.lower_device" (fun () -> Backend.lower_device backend ll) in
  let llvm_ir =
    timed l "codegen.emit_kernel_ir" (fun () -> Backend.emit_kernel_ir backend ll)
  in
  emitted llvm_ir;
  Option.iter emitted
    (timed l "codegen.emit_kernel_compat" (fun () ->
         Backend.emit_kernel_compat backend llvm_ir));
  emitted
    (timed l "codegen.emit_host" (fun () ->
         Backend.emit_host backend ~binary:o.Options.xclbin_name host));
  let bitstream =
    timed l "hlsim.synth" (fun () ->
        Backend.synthesise backend ~frontend:o.Options.frontend
          ~binary_name:o.Options.xclbin_name hls)
  in
  count l "hlsim.kernels" (List.length bitstream.Ftn_hlsim.Bitstream.kernels);
  (host, Some llvm_ir, bitstream)

let op_layer = function
  | "device.kernel_launch" -> "executor.kernel_launch"
  | "device.kernel_create" -> "executor.kernel_create"
  | "device.kernel_wait" -> "executor.kernel_wait"
  | "device.alloc" -> "executor.alloc"
  | "memref.dma_start" -> "executor.transfer"
  | "device.data_check_exists" | "device.data_acquire" | "device.data_release"
  | "device.lookup" ->
    "executor.data_env"
  | _ -> "executor.other"

(* Executor.run, stage by stage. The device handler is wrapped in a
   timing handler keyed by op name, so the host interpreter's self time
   is call_function minus the handler time inside it. The replay prints
   into its own sink, since the context's is private. *)
let replay_run l ~diag ~host ~bitstream ?faults ?sched ?device ?start_s () =
  let ctx =
    timed l "executor.context" (fun () ->
        Executor.create_context ~diag ?faults ?sched ?device ?start_s bitstream)
  in
  let sink = Intrinsics.make_sink () in
  let dh = Executor.device_handler ctx in
  let in_handler_s = ref 0. and in_handler_w = ref 0. in
  let timing_handler =
    Interp.handler ~domain:dh.Interp.h_domain (fun st frame op args ->
        let key = op_layer (Op.name op) in
        let t0 = now () and w0 = Gc.minor_words () in
        let r = dh.Interp.h_run st frame op args in
        let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
        in_handler_s := !in_handler_s +. dt;
        in_handler_w := !in_handler_w +. dw;
        bump l.secs key dt;
        bump l.words key dw;
        if key = "executor.data_env" then count l "executor.data_env.calls" 1;
        if key = "executor.kernel_launch" then count l "executor.kernel_launches" 1;
        r)
  in
  let state =
    timed l "interp.make" (fun () ->
        Interp.make
          ~handlers:
            [ timing_handler; Intrinsics.print_handler sink;
              Intrinsics.runtime_library_handler ]
          [ host ])
  in
  let main =
    match Interp.main_function host with
    | Some fn -> fn
    | None -> fail "host module has no main program"
  in
  let t0 = now () and w0 = Gc.minor_words () in
  ignore (Interp.call_function state main []);
  bump l.secs "interp.host" (now () -. t0 -. !in_handler_s);
  bump l.words "interp.host" (Gc.minor_words () -. w0 -. !in_handler_w);
  count l "interp.host_steps" state.Interp.steps;
  let r = timed l "executor.context" (fun () -> Executor.result_of_context ctx) in
  count l "executor.bytes_transferred" r.Executor.bytes_transferred;
  count l "executor.retries" r.Executor.retries;
  count l "executor.faults_injected" r.Executor.faults_injected;
  { r with Executor.output = Intrinsics.contents sink }

type traced = {
  t_layers : layers;
  t_host_ir : string;
  t_llvm_ir : string option;
  t_result : unit_result;
}

let traced_unit inputs reference =
  isolated @@ fun diag ->
  let l = new_layers () in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let host, llvm_ir, bitstream = replay_compile l diag inputs.source in
  let t1 = now () in
  (* On queue_2k the replay runs inside the queue's job closures; the
     queue's own time is Jobs.run minus those closures. *)
  let closures_s = ref 0. in
  let run ?faults ?sched ?device ?start_s () =
    let c0 = now () in
    let r = replay_run l ~diag ~host ~bitstream ?faults ?sched ?device ?start_s () in
    closures_s := !closures_s +. (now () -. c0);
    r
  in
  let q0 = now () in
  let ran = execute inputs ~diag run in
  (match ran with
   | Queue st ->
     bump l.secs "jobs.queue" (now () -. q0 -. !closures_s);
     count l "jobs.run" st.Jobs.jobs_run;
     count l "jobs.shed" st.Jobs.jobs_shed;
     count l "jobs.dropped" st.Jobs.jobs_dropped
   | Single _ -> ());
  let result = unit_result reference ~m0 ~t0 ~t1 bitstream ran in
  { t_layers = l; t_host_ir = Printer.to_string host; t_llvm_ir = llvm_ir;
    t_result = result }

(* The per-layer metrics. Every workload reports every one; a layer a
   workload never enters reads 0. Which end-to-end metric each should
   move:
   - frontend, verifier, pass.*, codegen.*, hlsim.*: compile_ms_p50 and
     wall_ms_p50 on compile_k32, with saxpy_1m unmoved;
   - interp.host, executor.kernel_launch (time, alloc_mw, host_steps,
     kernel_launches): wall_ms_p50 and alloc_mw_per_unit on saxpy_1m,
     with compile_k32 unmoved;
   - interp.make, executor.context, executor.data_env, executor.alloc,
     executor.transfer, executor.kernel_create, jobs.queue: wall_ms_p50
     on queue_2k, with failed_pct held at 0. *)
let pass_names =
  [ "lower-acc-to-omp"; "lower-omp-mapped-data"; "lower-omp-target-region";
    "canonicalize"; "lower-omp-loops-to-hls"; "lower-hls-to-func-call";
    "convert-to-llvm"; "split-modules"; "renumber" ]

let layer_ms =
  [ "frontend"; "verifier" ]
  @ List.map (fun p -> "pass." ^ p) pass_names
  @ [ "pass.count-ops"; "codegen.lower_device"; "codegen.emit_kernel_ir";
      "codegen.emit_kernel_compat"; "codegen.emit_host"; "hlsim.synth";
      "executor.context"; "interp.make"; "interp.host";
      "executor.kernel_launch"; "executor.kernel_create";
      "executor.kernel_wait"; "executor.alloc"; "executor.transfer";
      "executor.data_env"; "executor.other"; "jobs.queue" ]

let layer_alloc = [ "interp.host"; "executor.kernel_launch" ]

let layer_counts =
  [ "frontend.ops_out"; "verifier.calls" ]
  @ List.map (fun p -> "pass." ^ p ^ ".ops_out") pass_names
  @ [ "codegen.bytes_out"; "hlsim.kernels"; "interp.host_steps";
      "executor.kernel_launches"; "executor.bytes_transferred";
      "executor.data_env.calls"; "executor.retries";
      "executor.faults_injected"; "jobs.run"; "jobs.shed"; "jobs.dropped" ]

let find tbl key zero =
  match Hashtbl.find_opt tbl key with Some r -> !r | None -> zero

let attributed_pct t =
  Hashtbl.iter
    (fun k _ -> if not (List.mem k layer_ms) then fail "unlisted layer %S" k)
    t.t_layers.secs;
  let self = Hashtbl.fold (fun _ r acc -> acc +. !r) t.t_layers.secs 0. in
  100. *. self /. t.t_result.wall_s

let trace_exact t =
  t.t_result.exact
  @ List.map (fun k -> (k, string_of_int (find t.t_layers.counts k 0))) layer_counts

(* ---------- checks ---------- *)

let same_exact ~what (a : exact) (b : exact) =
  if a <> b then begin
    let diffs =
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k b with
          | Some v' when v' = v -> None
          | Some v' -> Some (Printf.sprintf "%s: %s vs %s" k v v')
          | None -> Some (Printf.sprintf "%s: missing" k))
        a
    in
    fail "%s: machine-independent numbers differ (%s)" what
      (String.concat "; " diffs)
  end

(* Across runs: the first run of a (workload, seed, mode) in a record
   directory writes its numbers; every later one must match them. *)
let check_record dir ~workload ~seed ~trace (e : exact) =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d.txt" workload seed (Bool.to_int trace))
  in
  let lines = List.map (fun (k, v) -> k ^ "=" ^ v) e in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let previous = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let parse line =
      match String.index_opt line '=' with
      | Some i ->
        Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None
    in
    same_exact ~what:("this run against " ^ file) e
      (List.filter_map parse (String.split_on_char '\n' previous))
  end
  else begin
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    List.iter (fun line -> output_string oc (line ^ "\n")) lines;
    close_out oc;
    Sys.rename tmp file
  end

let live_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* The live heap after the last unit may exceed the one after the first
   by a small absolute slack plus a share; more means state accumulates
   across units. *)
let check_heap ~first ~last =
  if last > first +. 2. +. (0.25 *. first) then
    fail "live heap grew from %.2f MB after the first unit to %.2f MB after \
          the last" first last

(* ---------- host speed ---------- *)

(* On a shared host the CPU's speed drifts by up to +-25% within seconds,
   and a unit's wall time follows it exactly: its CPU time equals its
   wall time. So a fixed calibration loop, which shares no code with the
   program under test, is timed between units and set-ups, and each wall
   time is reported at the reference speed at which the loop takes
   [reference_ms]: wall * reference_ms / (mean of the two loop times
   before the unit and the two after it). *)
let reference_ms = 4.0

let calibration_ms () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 8191) (float_of_int i)
  done;
  let l = List.init 20_000 (fun i -> float_of_int i *. 1.5) in
  let sum =
    List.fold_left (fun acc x -> acc +. (x *. x)) 0.
      (List.rev_map (fun x -> x +. 1.) l)
  in
  ignore (Sys.opaque_identity (sum, h));
  ms (now () -. t0)

(* The loop times so far, newest first. *)
type speed = { mutable loops : float list; mutable count : int }

let new_speed () =
  ignore (calibration_ms ());
  { loops = [ calibration_ms () ]; count = 1 }

(* [f ()] and the index of the loop time taken just before it. A full
   major collection follows, so that the next unit, like a fresh
   `ftnc run` process, does not pay for this one's garbage. *)
let calibrated speed f =
  let i = speed.count - 1 in
  let r = f () in
  Gc.full_major ();
  speed.loops <- calibration_ms () :: speed.loops;
  speed.count <- speed.count + 1;
  (r, i)

(* The factor that scales the wall time of what ran after loop [i] to
   the reference speed. *)
let scale speed =
  let loops = Array.of_list (List.rev speed.loops) in
  fun i ->
    let lo = max 0 (i - 1) and hi = min (Array.length loops - 1) (i + 2) in
    let sum = ref 0. in
    for j = lo to hi do
      sum := !sum +. loops.(j)
    done;
    reference_ms *. float_of_int (hi - lo + 1) /. !sum

(* ---------- set-up ---------- *)

let setup_repeats = 5

(* Set-up: generate the inputs from the seed, compute the CPU reference
   output, and run one warm-up unit, which must match it. *)
let setup workload seed =
  let t0 = now () in
  let inputs = make_inputs workload seed in
  let reference, _ = Core.Run.run_cpu inputs.source in
  let warm = run_unit inputs reference in
  if warm.failed > 0 then
    fail "warm-up unit: %d of %d failed against the CPU reference" warm.failed
      warm.attempted;
  (inputs, reference, warm, now () -. t0)

(* ---------- reporting ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metric m =
  Printf.printf "%-34s %16.6f %-6s %s\n" m.name m.value m.unit_ m.note

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The human-readable table, then the result line last. *)
let print_result ~attempted ~failed ~errors ~extra metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then fail "%s has no measured value" m.name)
    metrics;
  List.iter print_metric (metrics @ extra);
  List.iter (fun e -> Printf.printf "unit error: %s\n" e) errors;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " fields)

(* ---------- the two modes ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let new_tally () = { attempted = 0; failed = 0; errors = [] }

(* Counts the unit's outcome; a completed unit's machine-independent
   numbers must equal the warm-up unit's. *)
let record_outcome tally inputs (warm : unit_result) = function
  | Ok (r : unit_result) ->
    same_exact ~what:"units" warm.exact r.exact;
    tally.attempted <- tally.attempted + r.attempted;
    tally.failed <- tally.failed + r.failed
  | Error msg ->
    let n = if is_queue inputs then queue_jobs else 1 in
    tally.attempted <- tally.attempted + n;
    tally.failed <- tally.failed + n;
    tally.errors <- msg :: tally.errors

let failed_pct tally =
  100. *. float_of_int tally.failed /. float_of_int (max 1 tally.attempted)

let end_to_end ~workload ~seed ~seconds ~record =
  let speed = new_speed () in
  let setups =
    List.init setup_repeats (fun _ -> calibrated speed (fun () -> setup workload seed))
  in
  let (inputs, reference, warm, _), _ = List.hd setups in
  List.iter
    (fun ((_, r, w, _), _) ->
      if r <> reference then fail "set-up: the CPU reference differs between set-ups";
      same_exact ~what:"set-up warm-up units" warm.exact w.exact)
    setups;
  Option.iter (fun dir -> check_record dir ~workload ~seed ~trace:false warm.exact) record;
  Gc.compact ();
  let tally = new_tally () in
  let units = ref [] and attempts = ref 0 and live_first = ref nan in
  let deadline = now () +. seconds in
  while now () < deadline || !attempts <= 10 do
    incr attempts;
    let r, i = calibrated speed (fun () -> run_unit_counted inputs reference) in
    record_outcome tally inputs warm r;
    (* Keep only the timings: a unit's results hold its whole run. *)
    (match r with
     | Ok u -> units := (ms u.wall_s, ms u.compile_s, u.alloc_mw, i) :: !units
     | Error _ -> ());
    if Float.is_nan !live_first then live_first := live_mb ()
  done;
  check_heap ~first:!live_first ~last:(live_mb ());
  let k = scale speed in
  let n = List.length !units in
  let walls = List.map (fun (w, _, _, i) -> w *. k i) !units in
  let tail_ms, tail_pct = tail ~beyond:10 walls in
  let raw f = median (List.map f !units) in
  let setup_raw = median (List.map (fun ((_, _, _, s), _) -> s) setups) in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let metrics =
    [
      metric "wall_ms_p50" "ms" (median walls)
        ~note:(Printf.sprintf "%d units; raw %.3f ms at host speed x%.3f" n
                 (raw (fun (w, _, _, _) -> w)) (raw (fun (_, _, _, i) -> k i)));
      metric "wall_ms_tail" "ms" tail_ms
        ~note:(Printf.sprintf "p%.1f, 10 of %d samples beyond" tail_pct n);
      metric "compile_ms_p50" "ms" (median (List.map (fun (_, c, _, i) -> c *. k i) !units))
        ~note:(Printf.sprintf "raw %.3f ms" (raw (fun (_, c, _, _) -> c)));
      metric "alloc_mw_per_unit" "Mw" (raw (fun (_, _, a, _) -> a));
      metric "peak_heap_mb" "MB" peak_mb;
      metric "setup_s" "s" (median (List.map (fun ((_, _, _, s), i) -> s *. k i) setups))
        ~note:(Printf.sprintf "median of %d set-ups; raw %.3f s" setup_repeats setup_raw);
      metric "sim_device_ms" "sim_ms" warm.sim_device_ms;
      metric "device_luts" "count" (float_of_int warm.luts);
    ]
  in
  (* failed_pct can be 0 and the queue's simulated makespan and p99
     exist on queue_2k only, so they are printed, not in the result. *)
  let extra =
    metric "failed_pct" "%" (failed_pct tally)
      ~note:(Printf.sprintf "%d of %d %s" tally.failed tally.attempted
               (if is_queue inputs then "jobs" else "units"))
    :: (match warm.ran with
        | Queue st ->
          [ metric "sim_makespan_ms" "sim_ms" (ms st.Jobs.elapsed_s);
            metric "sim_p99_ms" "sim_ms" (ms st.Jobs.p99_latency_s) ]
        | Single _ -> [])
  in
  print_result ~attempted:tally.attempted ~failed:tally.failed
    ~errors:(List.rev tally.errors) ~extra metrics

let traced_mode ~workload ~seed ~seconds ~record =
  let inputs, reference, warm, _ = setup workload seed in
  (* The program's own artifacts, which the replay must reproduce. *)
  let artifacts = isolated (fun diag -> Compiler.compile ~engine:diag inputs.source) in
  let host_ir = Printer.to_string artifacts.Compiler.host in
  let llvm_ir = artifacts.Compiler.llvm_ir in
  Gc.compact ();
  let speed = new_speed () in
  let tally = new_tally () in
  let untraced = ref [] and traced = ref [] and first = ref None in
  let live_first = ref nan in
  let deadline = now () +. seconds in
  while now () < deadline || List.length !traced < 3 do
    let r, i = calibrated speed (fun () -> run_unit_counted inputs reference) in
    record_outcome tally inputs warm r;
    (match r with Ok u -> untraced := (ms u.wall_s, i) :: !untraced | Error _ -> ());
    let t, i = calibrated speed (fun () -> traced_unit inputs reference) in
    record_outcome tally inputs warm (Ok t.t_result);
    if t.t_host_ir <> host_ir then fail "replay: host module differs from Compiler.compile";
    if t.t_llvm_ir <> llvm_ir then fail "replay: LLVM-IR differs from Compiler.compile";
    if t.t_result.output <> warm.output then
      fail "replay: run output differs from Executor.run";
    (match !first with
     | Some f -> same_exact ~what:"traced units" (trace_exact f) (trace_exact t)
     | None -> first := Some t);
    (* Keep the layer accounts, scaled to the reference speed, only. *)
    traced := (t.t_layers, i, ms t.t_result.wall_s, attributed_pct t) :: !traced;
    if Float.is_nan !live_first then live_first := live_mb ()
  done;
  check_heap ~first:!live_first ~last:(live_mb ());
  let first = Option.get !first in
  Option.iter
    (fun dir -> check_record dir ~workload ~seed ~trace:true (trace_exact first))
    record;
  let med f = median (List.map f !traced) in
  let attributed = med (fun (_, _, _, a) -> a) in
  if attributed < 95. then
    fail "the named layers attribute only %.1f%% of the traced unit wall" attributed;
  let k = scale speed in
  let untraced_ms = median (List.map (fun (w, i) -> w *. k i) !untraced)
  and traced_ms = med (fun (_, i, w, _) -> w *. k i) in
  let queue_sim f =
    match first.t_result.ran with Queue st -> ms (f st) | Single _ -> 0.
  in
  let metrics =
    List.map
      (fun key ->
        metric (key ^ ".ms") "ms" (med (fun (l, i, _, _) -> ms (find l.secs key 0.) *. k i)))
      layer_ms
    @ List.map
        (fun k ->
          metric (k ^ ".alloc_mw") "Mw" (med (fun (l, _, _, _) -> find l.words k 0. /. 1e6)))
        layer_alloc
    @ List.map
        (fun k -> metric k "count" (float_of_int (find first.t_layers.counts k 0)))
        layer_counts
    @ [
        metric "jobs.sim_makespan_ms" "sim_ms" (queue_sim (fun st -> st.Jobs.elapsed_s));
        metric "jobs.sim_p99_ms" "sim_ms" (queue_sim (fun st -> st.Jobs.p99_latency_s));
        metric "trace.attributed_pct" "%" attributed;
        metric "trace.overhead_pct" "%" (100. *. ((traced_ms /. untraced_ms) -. 1.))
          ~note:(Printf.sprintf "traced %.3f ms vs untraced %.3f ms, %d pairs"
                   traced_ms untraced_ms (List.length !traced));
      ]
  in
  print_result ~attempted:tally.attempted ~failed:tally.failed
    ~errors:(List.rev tally.errors)
    ~extra:[ metric "failed_pct" "%" (failed_pct tally) ]
    metrics

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0
  and record = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--record-dir", Arg.Set_string record,
       "DIR where numbers that must repeat across runs are kept");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1 [--record-dir DIR]";
  let record = if !record = "" then None else Some !record in
  try
    if not (List.mem !workload workloads) then
      fail "unknown workload %S (expected one of: %s)" !workload
        (String.concat ", " workloads);
    if !seconds <= 0. then fail "--seconds must be positive";
    match !trace with
    | 0 -> end_to_end ~workload:!workload ~seed:!seed ~seconds:!seconds ~record
    | 1 -> traced_mode ~workload:!workload ~seed:!seed ~seconds:!seconds ~record
    | t -> fail "--trace must be 0 or 1, not %d" t
  with Bench_failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
