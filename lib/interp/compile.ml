(* Closure-compiled execution engine.

   [compile_function] walks a func.func body once and produces a tree of
   [code : frame -> unit] closures: op-name dispatch, constant and
   attribute decoding, cmp-predicate resolution, loop-part destructuring,
   result arities and callee resolution are all paid at compile time.

   Frames are typed slot files. Each SSA value gets a slot chosen from
   its static type: index/iN values (i1 as 0/1) live in an [int array],
   f16/f32/f64 values in a [float array], and everything else — memrefs,
   kernel handles, streams, protocol tokens — in an [Rtval.t array]. The
   compiled closures for arithmetic, comparisons, casts, math, loads,
   stores and structured control flow read and write those arrays
   directly, allocating nothing. Values are boxed to [Rtval.t] only at
   the engine's boundaries: function parameters and results, call
   arguments and results, and handler trampolines. An op whose operand or
   result slots do not fit its typed form (or that is too rare to deserve
   one) runs the tree-walker's [exec_default] on boxed values, so every
   op keeps [Tree]'s semantics and error messages.

   [arith.constant] results are materialised once per frame: each frame
   starts as a copy of a template holding the function's constants, and
   the constant op itself executes as a no-op.

   The engine preserves [Tree]'s observable contract exactly for values
   whose runtime kind matches their static type, as the frontend and the
   runtime produce them (DESIGN.md §12 documents the exceptions, since
   boxing follows a value's static type):
   - [steps] counts one step per executed op (including no-op
     terminators), the [max_steps] error fires at the same op, and after
     an error [steps] holds the tree-walker's value. Steps are charged
     once per maximal straight-line run of region-free, non-call,
     non-intercepted ops (see [compile_block]);
   - handlers still intercept ops before default semantics — ops whose
     name matches a handler's [domain] compile to a trampoline that tries
     the matching handlers and falls back to the compiled default;
   - [on_loop] fires for scf.for with the same [loop_key] (the induction
     value's id) and the same trip count;
   - f32 results round per operation, as in [Tree].

   Structurally malformed ops compile to a closure raising the
   tree-walker's error message when — and only when — the op would
   execute, so dead malformed code stays dead, as under the tree-walker.

   Compiled functions are cached per interpreter state, keyed by the
   func.func op's physical identity, so func.call sites and kernel
   relaunches reuse code. Compilation is lazy: a call site only forces
   its callee's compilation on first execution (this also handles
   recursion). *)

open Ftn_ir
open Ftn_dialects
module Span = Ftn_obs.Span
module Metrics = Ftn_obs.Metrics

type frame = {
  ints : int array;  (** index and iN values; i1 as 0/1. *)
  floats : float array;  (** f16, f32 and f64 values. *)
  refs : Rtval.t array;  (** Everything else, boxed. *)
}

type code = frame -> unit

(* Where a value lives: its slot file and index. [Sb] is an i1 value in
   [ints], boxed back as [Rtval.Bool]. *)
type slot =
  | Si of int
  | Sb of int
  | Sf of int
  | Sr of int

let error = Tree.error

(* A closure raising [fmt] when executed — deferred so malformed ops only
   fail if reached, mirroring the tree-walker's runtime errors. *)
let raisef fmt =
  Fmt.kstr (fun s -> fun (_ : frame) -> raise (Tree.Interp_error s)) fmt

(* The shared no-op. [compile_block] drops it from straight-line runs, so
   constants and terminators cost a step but no call. *)
let nop : code = fun _ -> ()

let[@inline] geti f k = Array.unsafe_get f.ints k
let[@inline] seti f k x = Array.unsafe_set f.ints k x
let[@inline] getf f k = Array.unsafe_get f.floats k
let[@inline] setf f k x = Array.unsafe_set f.floats k x

(* [Rtval.round_to_elt Types.F32]. *)
let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* f32-typed arithmetic rounds to single precision per operation. *)
let[@inline] round_if r32 x = if r32 then round32 x else x

let box f = function
  | Si k -> Rtval.Int (geti f k)
  | Sb k -> Rtval.Bool (geti f k <> 0)
  | Sf k -> Rtval.Float (getf f k)
  | Sr k -> Array.unsafe_get f.refs k

(* Unboxing converts like the [Rtval.as_*] the consuming op would apply. *)
let unbox f s v =
  match s with
  | Si k | Sb k -> seti f k (Rtval.as_int v)
  | Sf k -> setf f k (Rtval.as_float v)
  | Sr k -> Array.unsafe_set f.refs k v

let read_int f = function
  | Si k | Sb k -> geti f k
  | Sf k -> int_of_float (getf f k)
  | Sr k -> Rtval.as_int (Array.unsafe_get f.refs k)

let read_bool f = function
  | Si k | Sb k -> geti f k <> 0
  | s -> Rtval.as_bool (box f s)

let set_int f s n =
  match s with
  | Si k | Sb k -> seti f k n
  | s -> unbox f s (Rtval.Int n)

(* Compiled entry for one function: the op and its lazily-built closure. *)
type entry = {
  e_fn : Op.t;
  mutable e_call : (Rtval.t list -> Rtval.t list) option;
}

type cache = {
  mutable entries : (Op.t * entry) list;  (** Keyed by physical identity. *)
  scratch : Tree.frame;
      (** Frame handed to handler trampolines and boxed fallbacks, with
          the op's operands bound. *)
  handlers_for : string -> Tree.handler list;
      (** The state's handlers whose domain matches an op name, in order. *)
}

type Tree.cache += Compiled of cache

(* One name-to-handlers table per state: names listed by some [Names]
   domain map to every handler matching them; all other names get the
   [All]-domain handlers. *)
let handler_table (handlers : Tree.handler list) =
  let matching name =
    List.filter (fun h -> Tree.domain_matches h.Tree.h_domain name) handlers
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun h ->
      match h.Tree.h_domain with
      | Tree.Names ns ->
        List.iter
          (fun n ->
            if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n (matching n))
          ns
      | Tree.All -> ())
    handlers;
  let all =
    List.filter
      (fun h -> match h.Tree.h_domain with Tree.All -> true | _ -> false)
      handlers
  in
  fun name -> Option.value ~default:all (Hashtbl.find_opt tbl name)

let get_cache (st : Tree.state) =
  match st.Tree.exec_cache with
  | Compiled c -> c
  | _ ->
    let c =
      {
        entries = [];
        scratch = Tree.new_frame ();
        handlers_for = handler_table st.Tree.handlers;
      }
    in
    st.Tree.exec_cache <- Compiled c;
    c

let entry_for cache fn =
  match List.assq_opt fn cache.entries with
  | Some e -> e
  | None ->
    let e = { e_fn = fn; e_call = None } in
    cache.entries <- (fn, e) :: cache.entries;
    e

(* Slot assignment: first reference wins a fresh index in the slot file
   of the value's static type. *)
type ctx = {
  st : Tree.state;
  cache : cache;
  slots : (int, slot) Hashtbl.t;
  mutable n_ints : int;
  mutable n_floats : int;
  mutable n_refs : int;
  mutable consts : (slot * Rtval.t) list;
      (** Constant values written into every new frame. *)
}

let slot ctx v =
  let id = Value.id v in
  match Hashtbl.find_opt ctx.slots id with
  | Some s -> s
  | None ->
    let s =
      match Value.ty v with
      | Types.I1 ->
        ctx.n_ints <- ctx.n_ints + 1;
        Sb (ctx.n_ints - 1)
      | Types.I8 | Types.I16 | Types.I32 | Types.I64 | Types.Index ->
        ctx.n_ints <- ctx.n_ints + 1;
        Si (ctx.n_ints - 1)
      | Types.F16 | Types.F32 | Types.F64 ->
        ctx.n_floats <- ctx.n_floats + 1;
        Sf (ctx.n_floats - 1)
      | _ ->
        ctx.n_refs <- ctx.n_refs + 1;
        Sr (ctx.n_refs - 1)
    in
    Hashtbl.add ctx.slots id s;
    s

let slot_array ctx vs = Array.of_list (List.map (slot ctx) vs)

(* Charge one step and check the limit — [Tree.exec_op]'s prologue. *)
let[@inline] step (st : Tree.state) =
  st.Tree.steps <- st.Tree.steps + 1;
  if st.Tree.steps > st.Tree.max_steps then error "step limit exceeded"

let run_each st (codes : code array) f =
  for i = 0 to Array.length codes - 1 do
    step st;
    (Array.unsafe_get codes i) f
  done

(* A straight-line run of [all] ops. Ops in such a run never touch
   [steps] themselves, so when the whole run fits the budget its steps
   are charged up front and only the [live] (non-no-op) closures are
   called; [pos.(j)] is the step count through [live.(j)], which restores
   the tree-walker's count if that op raises. Otherwise the run is
   counted op by op, so [max_steps] fires at the same op. *)
let straight_line (st : Tree.state) (all : code array) : code =
  let k = Array.length all in
  let live = ref [] and pos = ref [] in
  Array.iteri
    (fun i c ->
      if c != nop then begin
        live := c :: !live;
        pos := (i + 1) :: !pos
      end)
    all;
  let live = Array.of_list (List.rev !live) in
  let pos = Array.of_list (List.rev !pos) in
  let n = Array.length live in
  if n = 0 then fun f ->
    let s = st.Tree.steps in
    if s + k <= st.Tree.max_steps then st.Tree.steps <- s + k
    else run_each st all f
  else fun f ->
    let s = st.Tree.steps in
    if s + k <= st.Tree.max_steps then begin
      st.Tree.steps <- s + k;
      let j = ref 0 in
      try
        while !j < n do
          (Array.unsafe_get live !j) f;
          incr j
        done
      with e ->
        st.Tree.steps <- s + Array.unsafe_get pos !j;
        raise e
    end
    else run_each st all f

(* Parallel slot-to-slot copy. Reads all sources before writing (via a
   per-closure scratch buffer) so overlapping src/dst sets — a yield
   forwarding an iter arg — behave like the tree-walker's read-the-list-
   then-bind sequence. The scratch is safe to share across invocations:
   no interpreted code runs between its fill and drain. *)
let copy_slots ~src ~dst : code =
  let n = Array.length src in
  if Array.length dst <> n then
    invalid_arg "Compile.copy_slots: length mismatch";
  if n = 0 then nop
  else if n = 1 then
    match (src.(0), dst.(0)) with
    | (Si s | Sb s), (Si d | Sb d) -> fun f -> seti f d (geti f s)
    | Sf s, Sf d -> fun f -> setf f d (getf f s)
    | Sr s, Sr d -> fun f -> Array.unsafe_set f.refs d (Array.unsafe_get f.refs s)
    | s, d -> fun f -> unbox f d (box f s)
  else
    let tmp = Array.make n Rtval.Unit in
    fun f ->
      for k = 0 to n - 1 do
        tmp.(k) <- box f src.(k)
      done;
      for k = 0 to n - 1 do
        unbox f dst.(k) tmp.(k)
      done

(* Write a runtime result list into result slots, with the tree-walker's
   arity error. *)
let set_result_list op (dst : slot array) (f : frame) rvs =
  let n = Array.length dst in
  let err () =
    error "%s produced %d values for %d results" (Op.name op)
      (List.length rvs) n
  in
  let rec go k = function
    | [] -> if k <> n then err ()
    | v :: rest ->
      if k >= n then err ()
      else begin
        unbox f dst.(k) v;
        go (k + 1) rest
      end
  in
  go 0 rvs

(* Linear element index of the [idx] slots into [buf]. Rank 0–2 accesses
   check the indices against the buffer's extents and compute the
   row-major offset directly; every other access, and every out-of-bounds
   or rank-mismatched one, goes through [Rtval.linearize] so errors carry
   exactly its messages. *)
let index_n f (buf : Rtval.buffer) idx =
  Rtval.linearize buf.Rtval.shape
    (Array.to_list (Array.map (fun s -> geti f s) idx))

let[@inline] index f (buf : Rtval.buffer) (idx : int array) =
  match idx with
  | [| s |] -> (
    let i = geti f s in
    match buf.Rtval.shape with
    | [ d ] when i >= 0 && i < d -> i
    | shape -> Rtval.linearize shape [ i ])
  | [| s; t |] -> (
    let i = geti f s and j = geti f t in
    match buf.Rtval.shape with
    | [ d0; d1 ] when i >= 0 && i < d0 && j >= 0 && j < d1 -> (i * d1) + j
    | shape -> Rtval.linearize shape [ i; j ])
  | [||] -> (
    match buf.Rtval.shape with [] -> 0 | shape -> Rtval.linearize shape [])
  | _ -> index_n f buf idx

(* An integer-memory element as [Rtval.load] would read it, then
   [Rtval.as_int]: i1 buffers yield 0/1. *)
let[@inline] int_elt (buf : Rtval.buffer) (a : int array) k =
  match buf.Rtval.elt with
  | Types.I1 -> if a.(k) <> 0 then 1 else 0
  | _ -> a.(k)

let const_value = function
  | Attr.Int (n, Types.I1) -> Some (Rtval.Bool (n <> 0))
  | Attr.Int (n, _) -> Some (Rtval.Int n)
  | Attr.Float (x, _) -> Some (Rtval.Float x)
  | Attr.Bool b -> Some (Rtval.Bool b)
  | _ -> None

(* Raised at compile time when an op's slots do not fit its typed form;
   the op then compiles to [boxed]. *)
exception Untyped

let rec force st cache entry =
  match entry.e_call with
  | Some c -> c
  | None ->
    let c = compile_function st cache entry.e_fn in
    entry.e_call <- Some c;
    c

and compile_function st cache fn =
  let fname = Option.value ~default:"?" (Func_d.func_name fn) in
  let sp_ref = ref None in
  let code =
    Span.with_span_sp ~name:"interp.compile" ~attrs:[ ("fn", fname) ]
      (fun sp ->
        sp_ref := Some sp;
        compile_fn_body st cache fn fname)
  in
  (match !sp_ref with
  | Some sp -> Metrics.observe "interp.compile_ms" (sp.Span.dur_s *. 1000.)
  | None -> ());
  Metrics.incr "interp.compiled_fns";
  code

and compile_fn_body st cache fn fname =
  let ctx =
    {
      st;
      cache;
      slots = Hashtbl.create 64;
      n_ints = 0;
      n_floats = 0;
      n_refs = 0;
      consts = [];
    }
  in
  let param_slots = slot_array ctx (Func_d.params fn) in
  let body = compile_block ctx (Func_d.body fn) in
  let template =
    {
      ints = Array.make ctx.n_ints 0;
      floats = Array.make ctx.n_floats 0.0;
      refs = Array.make ctx.n_refs Rtval.Unit;
    }
  in
  List.iter (fun (s, v) -> unbox template s v) ctx.consts;
  let nparams = Array.length param_slots in
  fun args ->
    let nargs = List.length args in
    if nargs <> nparams then
      error "function %s called with %d arguments (expects %d)" fname nargs
        nparams;
    let f =
      {
        ints = Array.copy template.ints;
        floats = Array.copy template.floats;
        refs = Array.copy template.refs;
      }
    in
    List.iteri (fun k v -> unbox f param_slots.(k) v) args;
    try
      body f;
      []
    with Tree.Return rvs -> rvs

(* A block's ops, grouped into maximal straight-line runs of batchable
   ops (see [straight_line]); region ops, calls and intercepted ops are
   charged one step each before they run, since they execute other ops
   or hand the state to a handler. *)
and compile_block ctx ops : code =
  let st = ctx.st in
  let batchable op =
    (match Op.regions op with [] -> true | _ :: _ -> false)
    && (match Op.name op with "func.call" | "fir.call" -> false | _ -> true)
    && match ctx.cache.handlers_for (Op.name op) with [] -> true | _ -> false
  in
  let flush run items =
    match run with
    | [] -> items
    | _ -> straight_line st (Array.of_list (List.rev run)) :: items
  in
  let rec group run items = function
    | [] -> List.rev (flush run items)
    | op :: rest ->
      let code = compile_op ctx op in
      if batchable op then group (code :: run) items rest
      else
        let single f =
          step st;
          code f
        in
        group [] (single :: flush run items) rest
  in
  match group [] [] ops with
  | [] -> nop
  | [ one ] -> one
  | items ->
    let items = Array.of_list items in
    fun f ->
      for i = 0 to Array.length items - 1 do
        (Array.unsafe_get items i) f
      done

and compile_op ctx op : code =
  let code = compile_op_dispatch ctx op in
  (* The profiling decision is paid at compile time: when enabled, the
     op's shared counter ref is resolved once and each execution is a
     single [incr]; when disabled the closure is untouched. Functions
     compiled while profiling was off stay uninstrumented (the cache is
     per interpreter state, which never outlives a run). *)
  if !Ftn_obs.Profile.on then begin
    let c = Ftn_obs.Profile.op_counter (Op.name op) in
    fun f ->
      incr c;
      code f
  end
  else code

(* Handler interception: ops whose name falls in some handler's domain get
   a trampoline. At run time it boxes the operands, binds them into the
   shared scratch tree-frame (handlers expect a [Tree.frame]) and tries
   the handlers in order, falling back to the compiled default. An
   intercepted constant keeps writing its value, since a handler may have
   overwritten the slot on an earlier execution. *)
and compile_op_dispatch ctx op : code =
  match ctx.cache.handlers_for (Op.name op) with
  | [] -> compile_default ctx op
  | hs ->
    let base =
      if String.equal (Op.name op) "arith.constant" then boxed ctx op
      else compile_default ctx op
    in
    let operand_binds =
      List.map (fun v -> (Value.id v, slot ctx v)) (Op.operands op)
    in
    let result_slots = slot_array ctx (Op.results op) in
    let st = ctx.st in
    let scratch = ctx.cache.scratch in
    fun f ->
      let vals =
        List.map
          (fun (id, s) ->
            let v = box f s in
            Hashtbl.replace scratch.Tree.vals id v;
            v)
          operand_binds
      in
      let rec try_handlers = function
        | [] -> base f
        | h :: rest -> (
          match Tree.run_handler h st scratch op vals with
          | Some rvs -> set_result_list op result_slots f rvs
          | None -> try_handlers rest)
      in
      try_handlers hs

(* The tree-walker's semantics on boxed values: operands are bound into
   the scratch frame, [Tree.exec_default] runs, and the results are
   unboxed into their slots. Only for ops without regions. *)
and boxed ctx op : code =
  let operands =
    List.map (fun v -> (Value.id v, slot ctx v)) (Op.operands op)
  in
  let results = List.map (fun v -> (v, slot ctx v)) (Op.results op) in
  let st = ctx.st and scratch = ctx.cache.scratch in
  fun f ->
    let vals =
      List.map
        (fun (id, s) ->
          let v = box f s in
          Hashtbl.replace scratch.Tree.vals id v;
          v)
        operands
    in
    Tree.exec_default st scratch op vals;
    List.iter (fun (v, s) -> unbox f s (Tree.get scratch v)) results

and compile_default ctx op : code =
  match Op.name op with
  | "scf.for" -> compile_for ctx op
  | "scf.if" -> compile_if ctx op
  | "scf.while" -> compile_while ctx op
  | "func.call" | "fir.call" -> compile_call ctx op
  | "func.return" -> (
    match List.map (slot ctx) (Op.operands op) with
    | [] -> fun _ -> raise (Tree.Return [])
    | srcs -> fun f -> raise (Tree.Return (List.map (box f) srcs)))
  | "omp.target" -> compile_region_entry ctx op "malformed omp.target"
  | "acc.parallel" -> compile_region_entry ctx op "malformed acc.parallel"
  | "omp.target_data" | "acc.data" -> compile_block ctx (Op.region_body op 0)
  | "omp.parallel_do" -> compile_parallel_do ctx op
  | "acc.loop" -> compile_acc_loop ctx op
  | "memref.dealloc" | "memref.dma_wait" | "scf.yield" | "scf.condition"
  | "omp.yield" | "omp.terminator" | "func.func" | "builtin.module"
  | "omp.target_enter_data" | "omp.target_exit_data" | "omp.target_update"
  | "acc.enter_data" | "acc.exit_data" | "acc.update" | "acc.yield"
  | "acc.terminator" | "hls.pipeline" | "hls.unroll" | "hls.interface"
  | "hls.array_partition" | "hls.dataflow" ->
    nop
  | _ -> ( try compile_typed ctx op with Untyped -> boxed ctx op)

(* Typed forms of the region-free ops that matter for speed. Each raises
   [Untyped] (falling back to [boxed]) unless the op is well formed and
   its slots sit in the files the form expects. *)
and compile_typed ctx op : code =
  let sl = slot ctx in
  let int_slot v = match sl v with Si k | Sb k -> k | _ -> raise Untyped in
  let float_slot v = match sl v with Sf k -> k | _ -> raise Untyped in
  let result () = match Op.results op with [ r ] -> r | _ -> raise Untyped in
  let arg1 () = match Op.operands op with [ a ] -> a | _ -> raise Untyped in
  let args2 () =
    match Op.operands op with [ a; b ] -> (a, b) | _ -> raise Untyped
  in
  let ints2 () =
    let a, b = args2 () in
    (int_slot a, int_slot b, int_slot (result ()))
  in
  let floats1 () = (float_slot (arg1 ()), float_slot (result ())) in
  let floats2 () =
    let a, b = args2 () in
    let r = result () in
    (float_slot a, float_slot b, float_slot r, Value.ty r = Types.F32)
  in
  let float_binop g =
    let a, b, d, r32 = floats2 () in
    fun f -> setf f d (round_if r32 (g (getf f a) (getf f b)))
  in
  let pred of_string =
    match Op.string_attr op "predicate" with
    | Some p -> ( match of_string p with Some p -> p | None -> raise Untyped)
    | None -> raise Untyped
  in
  match Op.name op with
  | "arith.constant" -> (
    match Option.bind (Op.find_attr op "value") const_value with
    | Some rv ->
      ctx.consts <- (sl (result ()), rv) :: ctx.consts;
      nop
    | None -> raise Untyped)
  | "arith.addi" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a + geti f b)
  | "arith.subi" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a - geti f b)
  | "arith.muli" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a * geti f b)
  | "arith.divsi" ->
    let a, b, d = ints2 () in
    fun f ->
      let y = geti f b in
      if y = 0 then error "integer division by zero"
      else seti f d (geti f a / y)
  | "arith.remsi" ->
    let a, b, d = ints2 () in
    fun f ->
      let y = geti f b in
      if y = 0 then error "integer remainder by zero"
      else seti f d (geti f a mod y)
  | "arith.maxsi" ->
    let a, b, d = ints2 () in
    fun f ->
      let x = geti f a and y = geti f b in
      seti f d (if x >= y then x else y)
  | "arith.minsi" ->
    let a, b, d = ints2 () in
    fun f ->
      let x = geti f a and y = geti f b in
      seti f d (if x <= y then x else y)
  (* On 0/1 booleans, land/lor/lxor are the tree's &&, || and <>. *)
  | "arith.andi" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a land geti f b)
  | "arith.ori" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a lor geti f b)
  | "arith.xori" ->
    let a, b, d = ints2 () in
    fun f -> seti f d (geti f a lxor geti f b)
  | "arith.addf" ->
    let a, b, d, r32 = floats2 () in
    fun f -> setf f d (round_if r32 (getf f a +. getf f b))
  | "arith.subf" ->
    let a, b, d, r32 = floats2 () in
    fun f -> setf f d (round_if r32 (getf f a -. getf f b))
  | "arith.mulf" ->
    let a, b, d, r32 = floats2 () in
    fun f -> setf f d (round_if r32 (getf f a *. getf f b))
  | "arith.divf" ->
    let a, b, d, r32 = floats2 () in
    fun f -> setf f d (round_if r32 (getf f a /. getf f b))
  | "arith.maximumf" -> float_binop Float.max
  | "arith.minimumf" -> float_binop Float.min
  | "arith.negf" ->
    let a, d = floats1 () in
    fun f -> setf f d (-.getf f a)
  | "arith.cmpi" -> (
    let a, b, d = ints2 () in
    match pred Arith.int_pred_of_string with
    | Arith.Eq -> fun f -> seti f d (Bool.to_int (geti f a = geti f b))
    | Arith.Ne -> fun f -> seti f d (Bool.to_int (geti f a <> geti f b))
    | Arith.Slt -> fun f -> seti f d (Bool.to_int (geti f a < geti f b))
    | Arith.Sle -> fun f -> seti f d (Bool.to_int (geti f a <= geti f b))
    | Arith.Sgt -> fun f -> seti f d (Bool.to_int (geti f a > geti f b))
    | Arith.Sge -> fun f -> seti f d (Bool.to_int (geti f a >= geti f b)))
  | "arith.cmpf" -> (
    let a, b = args2 () in
    let a = float_slot a and b = float_slot b and d = int_slot (result ()) in
    match pred Arith.float_pred_of_string with
    | Arith.Oeq -> fun f -> seti f d (Bool.to_int (getf f a = getf f b))
    | Arith.One -> fun f -> seti f d (Bool.to_int (getf f a <> getf f b))
    | Arith.Olt -> fun f -> seti f d (Bool.to_int (getf f a < getf f b))
    | Arith.Ole -> fun f -> seti f d (Bool.to_int (getf f a <= getf f b))
    | Arith.Ogt -> fun f -> seti f d (Bool.to_int (getf f a > getf f b))
    | Arith.Oge -> fun f -> seti f d (Bool.to_int (getf f a >= getf f b)))
  | "arith.select" -> (
    match Op.operands op with
    | [ c; t; e ] -> (
      let c = int_slot c in
      match (sl t, sl e, sl (result ())) with
      | (Si t | Sb t), (Si e | Sb e), (Si d | Sb d) ->
        fun f -> seti f d (if geti f c <> 0 then geti f t else geti f e)
      | Sf t, Sf e, Sf d ->
        fun f -> setf f d (if geti f c <> 0 then getf f t else getf f e)
      | Sr t, Sr e, Sr d ->
        fun f ->
          Array.unsafe_set f.refs d
            (Array.unsafe_get f.refs (if geti f c <> 0 then t else e))
      | _ -> raise Untyped)
    | _ -> raise Untyped)
  (* [Tree.eval_cast]: the result type picks the conversion. *)
  | "arith.index_cast" | "arith.extsi" | "arith.trunci" | "arith.sitofp"
  | "arith.fptosi" | "arith.extf" | "arith.truncf" -> (
    let a = arg1 () and r = result () in
    match (Value.ty r, sl a, sl r) with
    | Types.F32, (Si s | Sb s), Sf d ->
      fun f -> setf f d (round32 (float_of_int (geti f s)))
    | Types.F32, Sf s, Sf d -> fun f -> setf f d (round32 (getf f s))
    | Types.F64, (Si s | Sb s), Sf d ->
      fun f -> setf f d (float_of_int (geti f s))
    | Types.F64, Sf s, Sf d -> fun f -> setf f d (getf f s)
    | Types.I1, (Si s | Sb s), Sb d ->
      fun f -> seti f d (if geti f s <> 0 then 1 else 0)
    | (Types.I8 | Types.I16 | Types.I32 | Types.I64 | Types.Index), s, Si d
      -> (
      match s with
      | Si s | Sb s -> fun f -> seti f d (geti f s)
      | Sf s -> fun f -> seti f d (int_of_float (getf f s))
      | Sr _ -> raise Untyped)
    | _ -> raise Untyped)
  | "math.sqrt" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.sqrt (getf f a))
  | "math.exp" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.exp (getf f a))
  | "math.log" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.log (getf f a))
  | "math.sin" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.sin (getf f a))
  | "math.cos" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.cos (getf f a))
  | "math.tanh" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.tanh (getf f a))
  | "math.absf" ->
    let a, d = floats1 () in
    fun f -> setf f d (Float.abs (getf f a))
  | "math.powf" ->
    let a, b = args2 () in
    let a = float_slot a and b = float_slot b and d = float_slot (result ()) in
    fun f -> setf f d (Float.pow (getf f a) (getf f b))
  | "memref.load" -> (
    match Op.operands op with
    | [] -> raise Untyped
    | buf :: idx -> (
      let b = match sl buf with Sr k -> k | _ -> raise Untyped in
      let idx = Array.of_list (List.map int_slot idx) in
      match sl (result ()) with
      | Sf d ->
        fun f ->
          let buf = Rtval.as_buffer (Array.unsafe_get f.refs b) in
          let k = index f buf idx in
          (match buf.Rtval.mem with
          | Rtval.F a -> setf f d a.(k)
          | Rtval.I a -> setf f d (float_of_int (int_elt buf a k)))
      | Si d | Sb d ->
        fun f ->
          let buf = Rtval.as_buffer (Array.unsafe_get f.refs b) in
          let k = index f buf idx in
          (match buf.Rtval.mem with
          | Rtval.F a -> seti f d (int_of_float a.(k))
          | Rtval.I a -> seti f d (int_elt buf a k))
      | Sr _ -> raise Untyped))
  | "memref.store" -> (
    match Op.operands op with
    | value :: buf :: idx -> (
      let b = match sl buf with Sr k -> k | _ -> raise Untyped in
      let idx = Array.of_list (List.map int_slot idx) in
      match sl value with
      | Sf v ->
        fun f ->
          let buf = Rtval.as_buffer (Array.unsafe_get f.refs b) in
          let k = index f buf idx in
          (match buf.Rtval.mem with
          | Rtval.F a -> (
            match buf.Rtval.elt with
            | Types.F32 -> a.(k) <- round32 (getf f v)
            | _ -> a.(k) <- getf f v)
          | Rtval.I a -> a.(k) <- int_of_float (getf f v))
      | Si v ->
        fun f ->
          let buf = Rtval.as_buffer (Array.unsafe_get f.refs b) in
          let k = index f buf idx in
          (match buf.Rtval.mem with
          | Rtval.F a -> a.(k) <- float_of_int (geti f v)
          | Rtval.I a -> a.(k) <- geti f v)
      | Sb v ->
        fun f ->
          let buf = Rtval.as_buffer (Array.unsafe_get f.refs b) in
          let k = index f buf idx in
          (match buf.Rtval.mem with
          | Rtval.F _ -> invalid_arg "store: value/buffer type mismatch"
          | Rtval.I a -> a.(k) <- geti f v)
      | Sr _ -> raise Untyped)
    | _ -> raise Untyped)
  | _ -> raise Untyped

(* omp.target / acc.parallel: bind the region's block args from the op's
   operands, then run the body inline. *)
and compile_region_entry ctx op malformed : code =
  let blk = Op.region_block op 0 in
  if List.length blk.Op.args <> List.length (Op.operands op) then
    raisef "%s" malformed
  else begin
    let bind =
      copy_slots
        ~src:(slot_array ctx (Op.operands op))
        ~dst:(slot_array ctx blk.Op.args)
    in
    let body = compile_block ctx blk.Op.body in
    fun f ->
      bind f;
      body f
  end

and compile_call ctx op : code =
  match Op.symbol_attr op "callee" with
  | None -> raisef "call without callee"
  | Some callee -> (
    match Tree.find_function ctx.st callee with
    | None -> raisef "call to unknown function %s" callee
    | Some fn ->
      let arg_slots = List.map (slot ctx) (Op.operands op) in
      let result_slots = slot_array ctx (Op.results op) in
      let entry = entry_for ctx.cache fn in
      let st = ctx.st and cache = ctx.cache in
      fun f ->
        let args = List.map (box f) arg_slots in
        let rvs = (force st cache entry) args in
        set_result_list op result_slots f rvs)

and compile_for ctx op : code =
  match Scf.for_parts op with
  | None -> raisef "malformed scf.for"
  | Some parts ->
    if
      List.length parts.Scf.iter_inits <> List.length parts.Scf.iter_args
      || List.length (Op.results op) <> List.length parts.Scf.iter_args
    then raisef "malformed scf.for"
    else begin
      let lb_s = slot ctx parts.Scf.lb in
      let ub_s = slot ctx parts.Scf.ub in
      let step_s = slot ctx parts.Scf.step in
      let init_slots = slot_array ctx parts.Scf.iter_inits in
      let ind_s = slot ctx parts.Scf.induction in
      let arg_slots = slot_array ctx parts.Scf.iter_args in
      let res_slots = slot_array ctx (Op.results op) in
      let body = compile_block ctx parts.Scf.body in
      (* Iter values live in the block-arg slots across iterations: a
         trailing yield writes them back, results read them at exit. *)
      let yield_copy =
        match List.rev parts.Scf.body with
        | last :: _
          when Scf.is_yield last
               && List.length (Op.operands last) = Array.length arg_slots ->
          copy_slots ~src:(slot_array ctx (Op.operands last)) ~dst:arg_slots
        | _ -> nop
      in
      let init_copy = copy_slots ~src:init_slots ~dst:arg_slots in
      let res_copy = copy_slots ~src:arg_slots ~dst:res_slots in
      let ind_id = Value.id parts.Scf.induction in
      let st = ctx.st in
      fun f ->
        let lb = read_int f lb_s in
        let ub = read_int f ub_s in
        let step = read_int f step_s in
        if step <= 0 then error "scf.for requires a positive step";
        init_copy f;
        let i = ref lb in
        while !i < ub do
          set_int f ind_s !i;
          body f;
          yield_copy f;
          i := !i + step
        done;
        (match st.Tree.on_loop with
        | Some cb ->
          cb ~loop_key:ind_id ~iters:(max 0 ((ub - lb + step - 1) / step))
        | None -> ());
        res_copy f
    end

and compile_if ctx op : code =
  match Op.operands op with
  | [] -> raisef "malformed scf.if"
  | cond :: _ ->
    let c = slot ctx cond in
    let res_slots = slot_array ctx (Op.results op) in
    let compile_branch ops =
      let body = compile_block ctx ops in
      let after =
        match List.rev ops with
        | last :: _
          when Scf.is_yield last
               && List.length (Op.operands last) = Array.length res_slots ->
          copy_slots ~src:(slot_array ctx (Op.operands last)) ~dst:res_slots
        | _ ->
          if Array.length res_slots <> 0 then
            raisef "scf.if with results needs yields"
          else nop
      in
      if after == nop then body
      else fun f ->
        body f;
        after f
    in
    let then_ = compile_branch (Op.region_body op 0) in
    let else_ =
      compile_branch
        (if List.length (Op.regions op) > 1 then Op.region_body op 1 else [])
    in
    fun f -> if read_bool f c then then_ f else else_ f

and compile_while ctx op : code =
  match Op.regions op with
  | [ [ before ]; [ after ] ] -> (
    let init_slots = slot_array ctx (Op.operands op) in
    let barg_slots = slot_array ctx before.Op.args in
    if Array.length barg_slots <> Array.length init_slots then
      raisef "malformed scf.while"
    else
      let bind_inits = copy_slots ~src:init_slots ~dst:barg_slots in
      let before_code = compile_block ctx before.Op.body in
      let res_slots = slot_array ctx (Op.results op) in
      (* The tree-walker only discovers a malformed loop structure after
         running the before-region, so the error closures below execute it
         first — same steps, same side effects. *)
      match List.rev before.Op.body with
      | cond_op :: _ when String.equal (Op.name cond_op) "scf.condition"
        -> (
        match Op.operands cond_op with
        | c :: forwarded ->
          let c = slot ctx c in
          let fwd_slots = slot_array ctx forwarded in
          let aarg_slots = slot_array ctx after.Op.args in
          let after_code = compile_block ctx after.Op.body in
          if
            Array.length fwd_slots <> Array.length aarg_slots
            || Array.length fwd_slots <> Array.length res_slots
          then raisef "malformed scf.while"
          else
            let fwd_to_after = copy_slots ~src:fwd_slots ~dst:aarg_slots in
            let fwd_to_res = copy_slots ~src:fwd_slots ~dst:res_slots in
            let yield_to_bargs =
              match List.rev after.Op.body with
              | y :: _
                when Scf.is_yield y
                     && List.length (Op.operands y)
                        = Array.length barg_slots ->
                Some
                  (copy_slots
                     ~src:(slot_array ctx (Op.operands y))
                     ~dst:barg_slots)
              | _ -> None
            in
            fun f ->
              bind_inits f;
              let continue_ = ref true in
              while !continue_ do
                before_code f;
                if read_bool f c then begin
                  fwd_to_after f;
                  after_code f;
                  match yield_to_bargs with
                  | Some cp -> cp f
                  | None -> error "scf.while body must end in scf.yield"
                end
                else begin
                  continue_ := false;
                  fwd_to_res f
                end
              done
        | [] ->
          fun f ->
            bind_inits f;
            before_code f;
            error "scf.condition needs a condition")
      | _ ->
        fun f ->
          bind_inits f;
          before_code f;
          error "scf.while before-region must end in scf.condition")
  | _ -> raisef "malformed scf.while"

(* Shared n-dimensional loop nest for omp.parallel_do / acc.loop:
   inclusive upper bounds, all bounds resolved up-front (matching the
   tree-walker's evaluation order), induction variables optional past the
   block-arg count. [b] holds lb, ub, step per dimension. *)
and compile_nd_loop ctx ~step_err bound_vals iv_vals body_ops : code =
  let bounds =
    Array.of_list
      (List.concat_map
         (fun (lb, ub, step) -> [ slot ctx lb; slot ctx ub; slot ctx step ])
         bound_vals)
  in
  let ivs = slot_array ctx iv_vals in
  let body = compile_block ctx body_ops in
  let ndims = Array.length bounds / 3 in
  let rec mk k : int array -> frame -> unit =
    if k = ndims then fun _ f -> body f
    else
      let iv = if k < Array.length ivs then Some ivs.(k) else None in
      let inner = mk (k + 1) in
      fun b f ->
        let lb = b.(3 * k) and ub = b.((3 * k) + 1) in
        let step = b.((3 * k) + 2) in
        if step <= 0 then error "%s" step_err;
        let i = ref lb in
        while !i <= ub do
          (match iv with Some s -> set_int f s !i | None -> ());
          inner b f;
          i := !i + step
        done
  in
  let runner = mk 0 in
  fun f -> runner (Array.map (read_int f) bounds) f

and compile_parallel_do ctx op : code =
  match Omp.loop_parts op with
  | None -> raisef "malformed omp.parallel_do"
  | Some parts ->
    let bound_vals =
      List.map2
        (fun (lb, ub) step -> (lb, ub, step))
        (List.combine parts.Omp.lbs parts.Omp.ubs)
        parts.Omp.steps
    in
    compile_nd_loop ctx ~step_err:"omp.parallel_do requires positive steps"
      bound_vals parts.Omp.ivs parts.Omp.loop_body

and compile_acc_loop ctx op : code =
  let collapse = Option.value ~default:1 (Op.int_attr op "collapse") in
  let blk = Op.region_block op 0 in
  let rec split i ops acc =
    if i = collapse then Some (List.rev acc)
    else
      match ops with
      | lb :: ub :: step :: rest -> split (i + 1) rest ((lb, ub, step) :: acc)
      | _ -> None
  in
  match split 0 (Op.operands op) [] with
  | None -> raisef "malformed acc.loop bounds"
  | Some bound_vals ->
    compile_nd_loop ctx ~step_err:"acc.loop requires positive steps"
      bound_vals blk.Op.args blk.Op.body

(* Public entry: run [fn] with [args] under the compiled engine, reusing
   the state's cache across calls and relaunches. *)
let call_function (st : Tree.state) fn args =
  let cache = get_cache st in
  let entry = entry_for cache fn in
  (match entry.e_call with
  | Some _ -> Metrics.incr "interp.compile_cache_hits"
  | None -> Metrics.incr "interp.compile_cache_misses");
  (force st cache entry) args
