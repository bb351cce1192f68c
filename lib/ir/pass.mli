(** Pass manager: named module-to-module transformations with optional
    inter-pass verification, timing and IR inspection hooks. *)

type t

type stage_record = {
  stage_name : string;
  elapsed_s : float;
  op_count : int;
  alloc_bytes : float;
      (** OCaml heap allocated while the pass ran; 0 for the synthetic
          ["input"] record. *)
}

val make : string -> (Op.t -> Op.t) -> t
val name : t -> string
val run : t -> Op.t -> Op.t
val count_ops : Op.t -> int

val run_pipeline :
  ?verify_between:bool ->
  ?on_stage:(stage_record -> Op.t -> unit) ->
  t list ->
  Op.t ->
  Op.t * stage_record list
(** Run passes in order. The record list includes an initial ["input"]
    entry. [verify_between] runs {!Verifier.verify_exn} after each pass,
    in a ["verify.<pass>"] span outside the pass's own ["pass.<pass>"]
    span and its record's [elapsed_s]. *)

val run_pipeline_exn :
  ?verify_between:bool ->
  ?on_stage:(stage_record -> Op.t -> unit) ->
  t list ->
  Op.t ->
  Op.t

val pp_stage : Format.formatter -> stage_record -> unit
