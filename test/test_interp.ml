(* Tests for the IR interpreter: runtime values and buffers, scalar
   semantics, structured control flow, memory, calls, sequential OpenMP,
   and the loop statistics hook. Every suite that executes IR runs under
   both engines — the tree-walker and the closure compiler — and an
   "engines" suite checks the two agree on results and step counts. *)

open Ftn_ir
open Ftn_dialects
open Ftn_interp

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let engines = [ ("tree", `Tree); ("compiled", `Compiled) ]

(* Build a module with one function "f" and run it. *)
let run_fn ?engine ?handlers ~args ~arg_tys ~result_tys body_fn =
  let b = Builder.create () in
  let params = List.map (Builder.fresh b) arg_tys in
  let body = body_fn b params in
  let fn = Func_d.func ~sym_name:"f" ~args:params ~result_tys body in
  let m = Op.module_op [ fn ] in
  Verifier.verify_exn m;
  let state = Interp.make ?handlers ?engine [ m ] in
  Interp.run state ~entry:"f" ~args

let rtval = Alcotest.testable Rtval.pp (fun a b -> a = b)

(* --- rtval --- *)

let rtval_tests =
  [
    tc "buffer allocation and access" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 2; 3 ] in
        check Alcotest.int "len" 6 (Rtval.buffer_len buf);
        Rtval.store buf [ 1; 2 ] (Rtval.Float 5.0);
        check rtval "load back" (Rtval.Float 5.0) (Rtval.load buf [ 1; 2 ]);
        check rtval "other slot zero" (Rtval.Float 0.0) (Rtval.load buf [ 0; 0 ]));
    tc "rank-0 buffers" (fun () ->
        let buf = Rtval.alloc_buffer Types.I32 [] in
        Rtval.store buf [] (Rtval.Int 7);
        check rtval "scalar" (Rtval.Int 7) (Rtval.load buf []));
    tc "bounds checking" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 4 ] in
        Alcotest.check_raises "oob"
          (Invalid_argument "index 4 out of bounds for dimension of size 4")
          (fun () -> ignore (Rtval.load buf [ 4 ])));
    tc "f32 stores round to single precision" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 1 ] in
        Rtval.store buf [ 0 ] (Rtval.Float 0.1);
        (match Rtval.load buf [ 0 ] with
        | Rtval.Float x ->
          check Alcotest.bool "rounded" true (x <> 0.1 && Float.abs (x -. 0.1) < 1e-7)
        | _ -> Alcotest.fail "not a float");
        let buf64 = Rtval.alloc_buffer Types.F64 [ 1 ] in
        Rtval.store buf64 [ 0 ] (Rtval.Float 0.1);
        check rtval "f64 exact" (Rtval.Float 0.1) (Rtval.load buf64 [ 0 ]));
    tc "i1 buffers store booleans" (fun () ->
        let buf = Rtval.alloc_buffer Types.I1 [ 1 ] in
        Rtval.store buf [ 0 ] (Rtval.Bool true);
        check rtval "bool" (Rtval.Bool true) (Rtval.load buf [ 0 ]));
    tc "copy_into converts representation" (fun () ->
        let src = Rtval.of_int_array Types.I32 [| 1; 2; 3 |] in
        let dst = Rtval.alloc_buffer Types.F32 [ 3 ] in
        Rtval.copy_into ~src ~dst;
        check rtval "converted" (Rtval.Float 2.0) (Rtval.load dst [ 1 ]));
    tc "byte size" (fun () ->
        check Alcotest.int "f64 x4" 32
          (Rtval.byte_size (Rtval.alloc_buffer Types.F64 [ 4 ]));
        check Alcotest.int "rank0 f32" 4
          (Rtval.byte_size (Rtval.alloc_buffer Types.F32 [])));
  ]

(* --- scalar ops --- *)

let scalar_tests engine =
  [
    tc "integer arithmetic" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 7; Rtval.Int 3 ]
            ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x; y ] ->
                let s = Arith.subi b x y in
                let m = Arith.muli b (Op.result1 s) y in
                [ s; m; Func_d.return ~operands:[ Op.result1 m ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "result" [ Rtval.Int 12 ] r);
    tc "float arithmetic rounds f32" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 1.0 ] ~arg_tys:[ Types.F32 ]
            ~result_tys:[ Types.F32 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let c = Arith.const_f32 b 0.1 in
                let s = Arith.addf b x (Op.result1 c) in
                [ c; s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        match r with
        | [ Rtval.Float x ] ->
          check Alcotest.bool "single precision" true
            (Float.abs (x -. 1.1) < 1e-6)
        | _ -> Alcotest.fail "bad result");
    tc "division by zero raises" (fun () ->
        try
          ignore
            (run_fn ~engine ~args:[ Rtval.Int 1; Rtval.Int 0 ]
               ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
               (fun b params ->
                 match params with
                 | [ x; y ] ->
                   let d = Arith.divsi b x y in
                   [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
                 | _ -> assert false));
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
    tc "comparisons and select" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5; Rtval.Int 9 ]
            ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x; y ] ->
                let c = Arith.cmpi b Arith.Sgt x y in
                let s = Arith.select b (Op.result1 c) x y in
                [ c; s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "max" [ Rtval.Int 9 ] r);
    tc "math functions" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 4.0 ] ~arg_tys:[ Types.F64 ]
            ~result_tys:[ Types.F64 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let s = Math_d.sqrt b x in
                [ s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "sqrt" [ Rtval.Float 2.0 ] r);
    tc "casts" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 3.7 ] ~arg_tys:[ Types.F64 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let c = Arith.fptosi b x Types.I32 in
                [ c; Func_d.return ~operands:[ Op.result1 c ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "truncates" [ Rtval.Int 3 ] r);
  ]

(* --- control flow --- *)

let control_tests engine =
  [
    tc "scf.for accumulates through iter args" (fun () ->
        (* sum 0..9 *)
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.Index ]
            (fun b _ ->
              let z = Arith.const_index b 0 in
              let n = Arith.const_index b 10 in
              let one = Arith.const_index b 1 in
              let loop =
                Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
                  ~step:(Op.result1 one)
                  ~iter_args:[ Op.result1 z ]
                  (fun iv args ->
                    let acc = List.hd args in
                    let s = Arith.addi b acc iv in
                    [ s; Scf.yield ~operands:[ Op.result1 s ] () ])
              in
              [ z; n; one; loop; Func_d.return ~operands:[ Op.result1 loop ] () ])
        in
        check (Alcotest.list rtval) "sum" [ Rtval.Int 45 ] r);
    tc "scf.for with step" (fun () ->
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.Index ]
            (fun b _ ->
              let z = Arith.const_index b 0 in
              let n = Arith.const_index b 10 in
              let three = Arith.const_index b 3 in
              let loop =
                Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
                  ~step:(Op.result1 three)
                  ~iter_args:[ Op.result1 z ]
                  (fun _ args ->
                    let one = Arith.const_index b 1 in
                    let s = Arith.addi b (List.hd args) (Op.result1 one) in
                    [ one; s; Scf.yield ~operands:[ Op.result1 s ] () ])
              in
              [ z; n; three; loop; Func_d.return ~operands:[ Op.result1 loop ] () ])
        in
        (* iterations at 0,3,6,9 -> 4 *)
        check (Alcotest.list rtval) "trip count" [ Rtval.Int 4 ] r);
    tc "scf.if takes the right branch" (fun () ->
        let branch cond_val =
          run_fn ~engine ~args:[ Rtval.Bool cond_val ] ~arg_tys:[ Types.I1 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ c ] ->
                let t = Arith.const_i32 b 1 in
                let f = Arith.const_i32 b 2 in
                let if_op =
                  Scf.if_ b ~cond:c ~result_tys:[ Types.I32 ]
                    ~then_ops:[ t; Scf.yield ~operands:[ Op.result1 t ] () ]
                    ~else_ops:[ f; Scf.yield ~operands:[ Op.result1 f ] () ]
                    ()
                in
                [ if_op; Func_d.return ~operands:[ Op.result1 if_op ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "then" [ Rtval.Int 1 ] (branch true);
        check (Alcotest.list rtval) "else" [ Rtval.Int 2 ] (branch false));
    tc "scf.while counts down" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5 ] ~arg_tys:[ Types.I32 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ n ] ->
                let w =
                  Scf.while_ b ~inits:[ n ]
                    ~make_before:(fun args ->
                      let x = List.hd args in
                      let z = Arith.const_i32 b 0 in
                      let c = Arith.cmpi b Arith.Sgt x (Op.result1 z) in
                      [ z; c; Scf.condition ~cond:(Op.result1 c) ~operands:[ x ] ])
                    ~make_after:(fun args ->
                      let x = List.hd args in
                      let one = Arith.const_i32 b 1 in
                      let d = Arith.subi b x (Op.result1 one) in
                      [ one; d; Scf.yield ~operands:[ Op.result1 d ] () ])
                in
                [ w; Func_d.return ~operands:[ Op.result1 w ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "zero" [ Rtval.Int 0 ] r);
    tc "nested function calls" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let inner =
          let double = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ double; Func_d.return ~operands:[ Op.result1 double ] () ]
        in
        let y = Builder.fresh b Types.I32 in
        let outer =
          let call = Func_d.call b ~callee:"double" ~operands:[ y ]
              ~result_tys:[ Types.I32 ] in
          Func_d.func ~sym_name:"main_fn" ~args:[ y ] ~result_tys:[ Types.I32 ]
            [ call; Func_d.return ~operands:[ Op.result1 call ] () ]
        in
        let m = Op.module_op [ inner; outer ] in
        let state = Interp.make ~engine [ m ] in
        check (Alcotest.list rtval) "result" [ Rtval.Int 42 ]
          (Interp.run state ~entry:"main_fn" ~args:[ Rtval.Int 21 ]));
    tc "unknown function errors" (fun () ->
        let state = Interp.make ~engine [ Op.module_op [] ] in
        try
          ignore (Interp.run state ~entry:"ghost" ~args:[]);
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
    tc "step limit aborts runaway loops" (fun () ->
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let n = Arith.const_index b 1000000 in
        let one = Arith.const_index b 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
            ~step:(Op.result1 one) (fun _ _ -> [ Scf.yield () ])
        in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ z; n; one; loop; Func_d.return () ]
        in
        let state =
          Interp.make ~engine ~max_steps:100 [ Op.module_op [ fn ] ]
        in
        try
          ignore (Interp.run state ~entry:"f" ~args:[]);
          Alcotest.fail "expected step limit"
        with Interp.Interp_error _ -> ());
    tc "handlers run before defaults" (fun () ->
        let intercepted = ref false in
        let h =
          Interp.handler (fun _ _ op _ ->
              if Op.name op = "arith.constant" then begin
                intercepted := true;
                Some [ Rtval.Int 99 ]
              end
              else None)
        in
        let r =
          run_fn ~engine ~handlers:[ h ] ~args:[] ~arg_tys:[]
            ~result_tys:[ Types.I32 ]
            (fun b _ ->
              let c = Arith.const_i32 b 1 in
              [ c; Func_d.return ~operands:[ Op.result1 c ] () ])
        in
        check Alcotest.bool "intercepted" true !intercepted;
        check (Alcotest.list rtval) "handler value" [ Rtval.Int 99 ] r);
    tc "Names-domain handlers only see their ops" (fun () ->
        let seen = ref [] in
        let h =
          Interp.handler ~domain:(Interp.Names [ "arith.addi" ])
            (fun _ _ op _ ->
              seen := Op.name op :: !seen;
              Some [ Rtval.Int 41 ])
        in
        let r =
          run_fn ~engine ~handlers:[ h ] ~args:[] ~arg_tys:[]
            ~result_tys:[ Types.I32 ]
            (fun b _ ->
              let c = Arith.const_i32 b 1 in
              let a = Arith.addi b (Op.result1 c) (Op.result1 c) in
              [ c; a; Func_d.return ~operands:[ Op.result1 a ] () ])
        in
        check (Alcotest.list rtval) "intercepted value" [ Rtval.Int 41 ] r;
        check (Alcotest.list Alcotest.string) "only addi" [ "arith.addi" ]
          !seen);
    tc "on_loop reports iteration counts" (fun () ->
        let counts = ref [] in
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let n = Arith.const_index b 7 in
        let one = Arith.const_index b 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
            ~step:(Op.result1 one) (fun _ _ -> [ Scf.yield () ])
        in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ z; n; one; loop; Func_d.return () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        state.Interp.on_loop <-
          Some (fun ~loop_key ~iters -> counts := (loop_key, iters) :: !counts);
        ignore (Interp.run state ~entry:"f" ~args:[]);
        match !counts with
        | [ (_, 7) ] -> ()
        | _ -> Alcotest.fail "expected one loop with 7 iterations");
  ]

(* --- memory and omp --- *)

let memory_tests engine =
  [
    tc "alloca, store, load" (fun () ->
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.F64 ]
            (fun b _ ->
              let buf = Memref_d.alloca b (Types.memref_static [ 4 ] Types.F64) in
              let i = Arith.const_index b 2 in
              let v = Arith.const_f64 b 6.5 in
              let st = Memref_d.store (Op.result1 v) (Op.result1 buf) [ Op.result1 i ] in
              let ld = Memref_d.load b (Op.result1 buf) [ Op.result1 i ] in
              [ buf; i; v; st; ld; Func_d.return ~operands:[ Op.result1 ld ] () ])
        in
        check (Alcotest.list rtval) "roundtrip" [ Rtval.Float 6.5 ] r);
    tc "dynamic alloca takes size operands" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5 ] ~arg_tys:[ Types.Index ]
            ~result_tys:[ Types.Index ]
            (fun b params ->
              match params with
              | [ n ] ->
                let buf =
                  Memref_d.alloca b ~dynamic_sizes:[ n ]
                    (Types.memref_dynamic 1 Types.F32)
                in
                let z = Arith.const_index b 0 in
                let d = Memref_d.dim b (Op.result1 buf) (Op.result1 z) in
                [ buf; z; d; Func_d.return ~operands:[ Op.result1 d ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "dim" [ Rtval.Int 5 ] r);
    tc "buffers alias through calls" (fun () ->
        (* callee writes through the memref; caller observes it *)
        let b = Builder.create () in
        let p = Builder.fresh b (Types.memref [] Types.I32) in
        let callee =
          let v = Arith.const_i32 b 77 in
          Func_d.func ~sym_name:"set77" ~args:[ p ] ~result_tys:[]
            [ v; Memref_d.store (Op.result1 v) p []; Func_d.return () ]
        in
        let main_fn =
          let buf = Memref_d.alloca b (Types.memref [] Types.I32) in
          let call =
            Func_d.call b ~callee:"set77" ~operands:[ Op.result1 buf ]
              ~result_tys:[]
          in
          let ld = Memref_d.load b (Op.result1 buf) [] in
          Func_d.func ~sym_name:"m" ~args:[] ~result_tys:[ Types.I32 ]
            [ buf; call; ld; Func_d.return ~operands:[ Op.result1 ld ] () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ callee; main_fn ] ] in
        check (Alcotest.list rtval) "aliased" [ Rtval.Int 77 ]
          (Interp.run state ~entry:"m" ~args:[]));
    tc "omp.parallel_do executes sequentially with inclusive bounds" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nreal :: a(5)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 5\na(i) = real(i)\nend do\n!$omp end target parallel do\nprint *, a(5)\nend program"
        in
        let out, _ = Ftn_runtime.Executor.run_cpu ~engine m in
        check Alcotest.bool "a(5)=5" true
          (Astring_like.contains out "5.000000"));
    tc "omp.parallel_do with more bound dims than ivs doesn't crash" (fun () ->
        (* collapse=2 with a single induction variable is rejected by the
           verifier, but the interpreter must still take the safe tail
           rather than crash on List.tl — run it unverified. *)
        let b = Builder.create () in
        let lb = Arith.const_index b 1 in
        let ub = Arith.const_index b 2 in
        let step = Arith.const_index b 1 in
        let buf = Memref_d.alloca b (Types.memref [] Types.I32) in
        let iv = Builder.fresh b Types.Index in
        let body =
          let ld = Memref_d.load b (Op.result1 buf) [] in
          let one = Arith.const_i32 b 1 in
          let s = Arith.addi b (Op.result1 ld) (Op.result1 one) in
          [ ld; one; s;
            Memref_d.store (Op.result1 s) (Op.result1 buf) [];
            Omp.terminator () ]
        in
        let pd =
          Op.make "omp.parallel_do"
            ~operands:
              [ Op.result1 lb; Op.result1 ub; Op.result1 step;
                Op.result1 lb; Op.result1 ub; Op.result1 step ]
            ~attrs:[ ("collapse", Attr.i32 2); ("simd", Attr.Bool false) ]
            ~regions:[ Op.region ~args:[ iv ] body ]
        in
        let ld2 = Memref_d.load b (Op.result1 buf) [] in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Types.I32 ]
            [ lb; ub; step; buf; pd; ld2;
              Func_d.return ~operands:[ Op.result1 ld2 ] () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        check (Alcotest.list rtval) "2x2 iterations" [ Rtval.Int 4 ]
          (Interp.run state ~entry:"f" ~args:[]));
    tc "errors mid-block leave the tree-walker's steps and message"
      (fun () ->
        (* Each body is one straight-line run followed by a return; the
           failing op is the [steps]-th op executed. *)
        let run ?max_steps body_fn =
          let b = Builder.create () in
          let fn =
            Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
              (body_fn b @ [ Func_d.return () ])
          in
          let state = Interp.make ~engine ?max_steps [ Op.module_op [ fn ] ] in
          let outcome =
            try
              ignore (Interp.run state ~entry:"f" ~args:[]);
              "ok"
            with Interp.Interp_error s | Invalid_argument s -> s
          in
          (outcome, state.Interp.steps)
        in
        let outcome = Alcotest.(pair string int) in
        let oob_load b =
          let buf = Memref_d.alloca b (Types.memref_static [ 4 ] Types.F32) in
          let i = Arith.const_index b 4 in
          let one = Arith.const_f32 b 1.0 in
          let ld = Memref_d.load b (Op.result1 buf) [ Op.result1 i ] in
          let s = Arith.addf b (Op.result1 ld) (Op.result1 one) in
          [ buf; i; one; ld; s ]
        in
        check outcome "out-of-bounds load"
          ("index 4 out of bounds for dimension of size 4", 4)
          (run oob_load);
        check outcome "division by zero" ("integer division by zero", 3)
          (run (fun b ->
               let x = Arith.const_i32 b 7 in
               let z = Arith.const_i32 b 0 in
               let q = Arith.divsi b (Op.result1 x) (Op.result1 z) in
               let r = Arith.addi b (Op.result1 q) (Op.result1 x) in
               [ x; z; q; r ]));
        check outcome "rank-2 store, second index out of bounds"
          ("index 3 out of bounds for dimension of size 3", 5)
          (run (fun b ->
               let buf =
                 Memref_d.alloca b (Types.memref_static [ 2; 3 ] Types.F64)
               in
               let i = Arith.const_index b 1 in
               let j = Arith.const_index b 3 in
               let v = Arith.const_f64 b 2.5 in
               let st =
                 Memref_d.store (Op.result1 v) (Op.result1 buf)
                   [ Op.result1 i; Op.result1 j ]
               in
               [ buf; i; j; v; st ]));
        check outcome "step limit inside a straight-line run"
          ("step limit exceeded", 3)
          (run ~max_steps:2 oob_load);
        check outcome "limit exactly at the run's end" ("step limit exceeded", 4)
          (run ~max_steps:3 (fun b ->
               let x = Arith.const_i32 b 7 in
               let y = Arith.addi b (Op.result1 x) (Op.result1 x) in
               let z = Arith.muli b (Op.result1 y) (Op.result1 x) in
               [ x; y; z ])));
    tc "print intrinsics capture output" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nprint *, 'hello', 3, 2.5\nend program"
        in
        let out, _ = Ftn_runtime.Executor.run_cpu ~engine m in
        check Alcotest.bool "text" true (Astring_like.contains out "hello");
        check Alcotest.bool "int" true (Astring_like.contains out "3");
        check Alcotest.bool "float" true (Astring_like.contains out "2.5"));
  ]

let stream_tests engine =
  [
    tc "streams are FIFOs" (fun () ->
        let b = Builder.create () in
        let ops = ref [] in
        let emit op = ops := op :: !ops in
        let emit_get op =
          emit op;
          Op.result1 op
        in
        let s = emit_get (Ftn_dialects.Hls.stream_create b Types.F32) in
        let c1 = emit_get (Arith.const_f32 b 1.5) in
        let c2 = emit_get (Arith.const_f32 b 2.5) in
        emit (Ftn_dialects.Hls.stream_write ~stream:s ~value:c1);
        emit (Ftn_dialects.Hls.stream_write ~stream:s ~value:c2);
        let r1 = emit_get (Ftn_dialects.Hls.stream_read b s) in
        let r2 = emit_get (Ftn_dialects.Hls.stream_read b s) in
        let sub = emit_get (Arith.subf b r2 r1) in
        emit (Func_d.return ~operands:[ sub ] ());
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Types.F32 ]
            (List.rev !ops)
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        check (Alcotest.list rtval) "fifo order" [ Rtval.Float 1.0 ]
          (Interp.run state ~entry:"f" ~args:[]));
    tc "reading an empty stream errors" (fun () ->
        let b = Builder.create () in
        let s_op = Ftn_dialects.Hls.stream_create b Types.F32 in
        let rd = Ftn_dialects.Hls.stream_read b (Op.result1 s_op) in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ s_op; rd; Func_d.return () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        try
          ignore (Interp.run state ~entry:"f" ~args:[]);
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
  ]

(* --- engine equivalence --- *)

let engine_tests =
  [
    tc "tree and compiled agree on results and steps" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let inner =
          let d = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
        in
        let main_fn =
          let z = Arith.const_i32 b 0 in
          let lb = Arith.const_index b 0 in
          let ub = Arith.const_index b 8 in
          let one = Arith.const_index b 1 in
          let loop =
            Scf.for_ b ~lb:(Op.result1 lb) ~ub:(Op.result1 ub)
              ~step:(Op.result1 one)
              ~iter_args:[ Op.result1 z ]
              (fun iv args ->
                let i32 = Arith.index_cast b iv Types.I32 in
                let c =
                  Func_d.call b ~callee:"double"
                    ~operands:[ Op.result1 i32 ] ~result_tys:[ Types.I32 ]
                in
                let s = Arith.addi b (List.hd args) (Op.result1 c) in
                [ i32; c; s; Scf.yield ~operands:[ Op.result1 s ] () ])
          in
          Func_d.func ~sym_name:"m" ~args:[] ~result_tys:[ Types.I32 ]
            [ z; lb; ub; one; loop;
              Func_d.return ~operands:[ Op.result1 loop ] () ]
        in
        let m = Op.module_op [ inner; main_fn ] in
        Verifier.verify_exn m;
        let run engine =
          let state = Interp.make ~engine [ m ] in
          let r = Interp.run state ~entry:"m" ~args:[] in
          (r, state.Interp.steps)
        in
        let r_tree, steps_tree = run `Tree in
        let r_comp, steps_comp = run `Compiled in
        check (Alcotest.list rtval) "same results" r_tree r_comp;
        check Alcotest.int "same steps" steps_tree steps_comp;
        (* sum over i in 0..7 of 2i *)
        check (Alcotest.list rtval) "value" [ Rtval.Int 56 ] r_comp);
    tc "tree and compiled agree across every slot file" (fun () ->
        (* f32, f64, integer and logical values; rank-1 and rank-2
           arrays; intrinsics, branches and a while loop — every typed
           form of the compiled engine, checked against the tree-walker
           on output and steps. *)
        let m =
          Ftn_frontend.Frontend.to_core
            {|program mix
  implicit none
  integer, parameter :: n = 6
  real :: x(n), m(n, 3)
  double precision :: d(n)
  integer :: k(n), i, j, s
  logical :: flags(n)
  real :: acc, q
  double precision :: dacc
  acc = 0.0
  dacc = 0.0d0
  s = 0
  do i = 1, n
    x(i) = real(i) * 0.1 - 0.35
    d(i) = dble(i) / 3.0d0
    k(i) = mod(i * 7, 5) - 2
    flags(i) = x(i) > 0.0
  end do
  do j = 1, 3
    do i = 1, n
      m(i, j) = x(i) * real(j) + abs(x(i))
    end do
  end do
  do i = 1, n
    q = sqrt(abs(x(i))) + exp(x(i)) - max(x(i), 0.1) + min(x(i), -0.2)
    if (flags(i)) then
      acc = acc + q * m(i, 2)
    else
      acc = acc - q / (m(i, 3) + 1.0)
    end if
    dacc = dacc + d(i) * d(i)
    s = s + max(k(i), 0) - min(k(i), 1) + mod(k(i) + 10, 3)
  end do
  i = 10
  do while (i > 0)
    s = s + i / 3
    i = i - 2
  end do
  print *, acc, dacc, s, flags(1), flags(n), m(n, 3)
end program mix
|}
        in
        let tree = Ftn_runtime.Executor.run_cpu ~engine:`Tree m in
        let comp = Ftn_runtime.Executor.run_cpu ~engine:`Compiled m in
        check Alcotest.(pair string int) "same output and steps" tree comp;
        check Alcotest.bool "ran the program" true
          (Astring_like.contains (fst comp) "F T"));
    tc "compiled functions are cached per state" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let fn =
          let d = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
        in
        let m = Op.module_op [ fn ] in
        let state = Interp.make ~engine:`Compiled [ m ] in
        let before =
          Ftn_obs.Metrics.counter_value "interp.compile_cache_hits"
        in
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 1 ]);
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 2 ]);
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 3 ]);
        let after =
          Ftn_obs.Metrics.counter_value "interp.compile_cache_hits"
        in
        check Alcotest.bool "relaunches hit the cache" true
          (after - before >= 2));
  ]

let () =
  let per_engine mk =
    List.map (fun (tag, engine) -> (tag, mk engine)) engines
  in
  Alcotest.run "interp"
    ([ ("rtval", rtval_tests) ]
    @ List.concat_map
        (fun (name, mk) ->
          per_engine mk
          |> List.map (fun (tag, tests) -> (name ^ "-" ^ tag, tests)))
        [
          ("scalars", scalar_tests);
          ("control", control_tests);
          ("memory", memory_tests);
          ("streams", stream_tests);
        ]
    @ [ ("engines", engine_tests) ])
