(* "lower omp target region" (paper, Section 3): rewrites each omp.target
   into device.kernel_create / device.kernel_launch / device.kernel_wait,
   which map closely onto the OpenCL host API and give the flexibility to
   schedule kernels asynchronously.

   A second step outlines the kernel region into a func.func placed in a
   nested builtin.module carrying the attribute target = "fpga" (Listing 2
   of the paper); the kernel_create op is left with an empty region and a
   device_function symbol naming the outlined function. *)

open Ftn_ir
open Ftn_dialects

(* Kernel ordinals come from a counter owned by one [run], so names are
   a pure function of the input module, whatever else the process is
   compiling. *)
let fresh_kernel_name counter enclosing =
  incr counter;
  Fmt.str "%s_kernel_%d" enclosing !counter

(* --- step 1: omp.target -> device.kernel_* --- *)

let target_to_kernel counter =
  Rewrite.pattern ~roots:[ "omp.target" ] "omp-target-to-kernel-ops"
    (fun ctx op ->
      let b = Rewrite.builder ctx in
      (* kernel names are derived from the enclosing function *)
      let enclosing =
        match List.find_opt Func_d.is_func (Rewrite.parents ctx) with
        | Some fn -> Option.value ~default:"kernel" (Func_d.func_name fn)
        | None -> "kernel"
      in
      let name = fresh_kernel_name counter enclosing in
      let blk = Op.region_block op 0 in
      (* strip the omp.terminator; the outlined function will return *)
      let body =
        List.filter
          (fun o -> not (String.equal (Op.name o) "omp.terminator"))
          blk.Op.body
      in
      (* The kernel ops inherit the omp.target's source location so
         runtime failures (and the flight recorder) point at the
         offloaded construct. *)
      let loc = Op.loc op in
      let create =
        Op.set_loc
          (Builder.op1 b "device.kernel_create" ~operands:(Op.operands op)
             ~attrs:[ ("device_function", Attr.Symbol name) ]
             ~regions:[ [ { blk with Op.body = body } ] ]
             Types.Kernel_handle)
          loc
      in
      let handle = Op.result1 create in
      Some
        (Rewrite.replace_with
           [
             create;
             Op.set_loc (Device.kernel_launch handle) loc;
             Op.set_loc (Device.kernel_wait handle) loc;
           ]))

(* --- step 2: outline kernel regions into a device module --- *)

let outline_kernel counter device_funcs =
  Rewrite.pattern ~roots:[ "device.kernel_create" ] "outline-kernel-region"
    (fun ctx op ->
      match Op.regions op with
      | [ [ blk ] ] when blk.Op.body <> [] ->
        let b = Rewrite.builder ctx in
        let name =
          match Device.kernel_function op with
          | Some n -> n
          | None -> fresh_kernel_name counter "kernel"
        in
        (* Any free values used by the region beyond its block args become
           extra kernel arguments. *)
        let free =
          Value.Set.diff
            (Op.free_values_of_ops blk.Op.body)
            (Value.Set.of_list blk.Op.args)
        in
        let extra = Value.Set.elements free in
        let extra_args = List.map (fun v -> Builder.fresh b (Value.ty v)) extra in
        let subst =
          List.fold_left2
            (fun acc old_v new_v -> Value.Map.add old_v new_v acc)
            Value.Map.empty extra extra_args
        in
        let body =
          List.map (Op.substitute_map subst) blk.Op.body
          @ [ Func_d.return () ]
        in
        let fn =
          Func_d.func ~sym_name:name
            ~args:(blk.Op.args @ extra_args)
            ~result_tys:[] body
        in
        (* uniquify the outlined function's values *)
        let fn, _ = Builder.clone b fn in
        device_funcs := fn :: !device_funcs;
        Some
          (Rewrite.replace_with
             [
               {
                 op with
                 Op.operands = Op.operands op @ extra;
                 regions = [ Op.region [] ];
               };
             ])
      | _ -> None)

let outline counter m =
  let device_funcs = ref [] in
  let m' = Rewrite.apply [ outline_kernel counter device_funcs ] m in
  if !device_funcs = [] then m'
  else begin
    let device_module = Builtin.device_module (List.rev !device_funcs) in
    Op.with_module_body m' (Op.module_body m' @ [ device_module ])
  end

let run m =
  let counter = ref 0 in
  outline counter (Rewrite.apply [ target_to_kernel counter ] m)

let pass = Pass.make "lower-omp-target-region" run
