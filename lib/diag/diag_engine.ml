(* Accumulating diagnostic engine with a --max-errors cap. *)

type t = {
  mutable diags : Diag.t list; (* reversed *)
  mutable errors : int;
  mutable warnings : int;
  mutable max_errors : int;
  mutable on_emit : Diag.t -> unit;
}

let create ?(max_errors = 20) () =
  { diags = []; errors = 0; warnings = 0; max_errors; on_emit = ignore }

let default = create ()
let set_max_errors t n = t.max_errors <- max 1 n
let set_on_emit t f = t.on_emit <- f
let diagnostics t = List.rev t.diags

let warnings t =
  List.filter (fun d -> d.Diag.severity = Diag.Warning) (diagnostics t)

let error_count t = t.errors
let warning_count t = t.warnings
let has_errors t = t.errors > 0

(* Emission is serialised: compiles on several domains at once may all
   warn (e.g. rewrite nonconvergence) into the shared [default] engine. *)
let emit_mu = Mutex.create ()

let emit t d =
  Mutex.protect emit_mu @@ fun () ->
  t.diags <- d :: t.diags;
  (match d.Diag.severity with
  | Diag.Error ->
    t.errors <- t.errors + 1;
    Ftn_obs.Metrics.incr "diag.errors"
  | Diag.Warning ->
    t.warnings <- t.warnings + 1;
    Ftn_obs.Metrics.incr "diag.warnings";
    Ftn_obs.Log.warnf "%a" Diag.pp_header d
  | Diag.Note -> ());
  t.on_emit d;
  if t.errors >= t.max_errors then begin
    t.diags <-
      Diag.note
        (Fmt.str "too many errors emitted, stopping now (--max-errors=%d)"
           t.max_errors)
      :: t.diags;
    raise (Diag.Diag_failure (diagnostics t))
  end

let error t ?loc ?notes msg = emit t (Diag.error ?loc ?notes msg)
let warning t ?loc ?notes msg = emit t (Diag.warning ?loc ?notes msg)
let note t ?loc msg = emit t (Diag.note ?loc msg)

let fail_if_errors t =
  if has_errors t then raise (Diag.Diag_failure (diagnostics t))

let reset t =
  t.diags <- [];
  t.errors <- 0;
  t.warnings <- 0
