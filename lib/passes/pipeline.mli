(** Canned pass pipelines reproducing the paper's Figure 2 flow. *)

type options = {
  data : Lower_omp_data.options;
  hls : Lower_omp_to_hls.options;
  canonicalize : bool;
}

val default_options : options

val host_passes : ?options:options -> unit -> Ftn_ir.Pass.t list
(** Core+omp -> host module with device ops + nested fpga module. *)

val device_passes : ?options:options -> unit -> Ftn_ir.Pass.t list
(** Device module -> hls-dialect form. *)

val device_llvm_passes : unit -> Ftn_ir.Pass.t list
(** hls form -> llvm dialect. *)

type compiled = {
  combined : Ftn_ir.Op.t;
  host : Ftn_ir.Op.t;
  device_core : Ftn_ir.Op.t option;
  device_hls : Ftn_ir.Op.t option;
  device_llvm : Ftn_ir.Op.t option;
  stages : Ftn_ir.Pass.stage_record list;
}

val run_mid_end :
  ?options:options -> ?to_llvm:bool -> Ftn_ir.Op.t -> compiled
(** Run the full mid-end from a core+omp module (Frontend.to_core output),
    verifying the IR between passes. *)
