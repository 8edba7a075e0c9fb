(* Tests for the analysis library: CFG construction, dominators, natural
   loops, the dataflow solver instances, and the lint pass — plus
   property tests that corrupt valid compiled programs and check the
   lint flags every corruption. *)

module Insn = Fisher92_ir.Insn
module Program = Fisher92_ir.Program
module Cfg = Fisher92_analysis.Cfg
module Dom = Fisher92_analysis.Dom
module Loops = Fisher92_analysis.Loops
module Dataflow = Fisher92_analysis.Dataflow
module Defuse = Fisher92_analysis.Defuse
module Lint = Fisher92_analysis.Lint
module T = Fisher92_testsupport.Testsupport
module Gen = QCheck2.Gen

(* ---------- hand-built IR fixtures ---------- *)

(* Wrap a single instruction list as a whole validated-shaped program:
   branch sites are collected from the code in site order. *)
let mkprog ?(n_iparams = 0) ?(n_iregs = 4) ?(n_fregs = 0) code =
  let code = Array.of_list code in
  let f =
    {
      Program.fname = "f";
      n_iparams;
      n_fparams = 0;
      n_iregs;
      n_fregs;
      code;
    }
  in
  let sites = ref [] in
  Array.iteri
    (fun pc insn ->
      match Insn.branch_site insn with
      | Some s -> sites := (s, { Program.s_func = 0; s_pc = pc; s_label = "s" }) :: !sites
      | None -> ())
    code;
  let sites =
    List.sort compare !sites |> List.map snd |> Array.of_list
  in
  {
    Program.pname = "hand";
    funcs = [| f |];
    arrays = [||];
    func_table = [||];
    entry = 0;
    sites;
  }

(* A countdown loop:
     0: r0 <- 3
     1: r1 <- 0
     2: r0 <- r0 - 1        <- loop header (back-edge target)
     3: r2 <- r0 > r1
     4: br r2, 2            <- backward conditional branch
     5: output r0
     6: halt
   Blocks: B0=[0,2) B1=[2,5) B2=[5,7); edges B0->B1, B1->{B1,B2}. *)
let countdown =
  mkprog
    [
      Insn.Iconst (0, 3);
      Insn.Iconst (1, 0);
      Insn.Ibini (Insn.Sub, 0, 0, 1);
      Insn.Icmp (Insn.Gt, 2, 0, 1);
      Insn.Br { cond = 2; target = 2; site = 0 };
      Insn.Output 0;
      Insn.Halt;
    ]

let sorted = List.sort compare

let test_cfg_blocks () =
  let cfg = Cfg.build countdown.Program.funcs.(0) in
  Alcotest.(check int) "three blocks" 3 (Cfg.n_blocks cfg);
  let b = cfg.Cfg.blocks in
  Alcotest.(check (list (pair int int)))
    "block extents"
    [ (0, 2); (2, 5); (5, 7) ]
    (Array.to_list b |> List.map (fun bl -> (bl.Cfg.b_start, bl.Cfg.b_stop)));
  Alcotest.(check (list int)) "entry succs" [ 1 ] b.(0).Cfg.b_succs;
  Alcotest.(check (list int)) "loop block succs" [ 1; 2 ]
    (sorted b.(1).Cfg.b_succs);
  Alcotest.(check (list int)) "exit block succs" [] b.(2).Cfg.b_succs;
  Alcotest.(check (list int)) "loop block preds" [ 0; 1 ]
    (sorted b.(1).Cfg.b_preds);
  Alcotest.(check int) "entry block" 0 cfg.Cfg.entry;
  Alcotest.(check (array bool)) "all reachable" [| true; true; true |]
    cfg.Cfg.reachable;
  (* pc -> block map covers every pc *)
  Alcotest.(check (list int)) "block_of_pc" [ 0; 0; 1; 1; 1; 2; 2 ]
    (Array.to_list cfg.Cfg.block_of_pc)

let test_cfg_unreachable () =
  (* jump over a dead region: 0: jump 3; 1: output; 2: halt; 3: halt *)
  let p =
    mkprog [ Insn.Jump 3; Insn.Output 0; Insn.Halt; Insn.Halt ]
  in
  let cfg = Cfg.build p.Program.funcs.(0) in
  Alcotest.(check int) "blocks kept" 3 (Cfg.n_blocks cfg);
  let dead =
    Array.to_list cfg.Cfg.reachable |> List.filter (fun r -> not r)
  in
  Alcotest.(check int) "one unreachable block" 1 (List.length dead);
  (* rpo only walks reachable blocks *)
  Alcotest.(check int) "rpo length" 2 (List.length (Cfg.rpo cfg))

let test_dominators () =
  let cfg = Cfg.build countdown.Program.funcs.(0) in
  let dom = Dom.compute cfg in
  Alcotest.(check int) "entry has no idom" (-1) (Dom.idom dom 0);
  Alcotest.(check int) "loop block idom" 0 (Dom.idom dom 1);
  Alcotest.(check int) "exit idom" 1 (Dom.idom dom 2);
  Alcotest.(check bool) "entry dominates all" true (Dom.dominates dom 0 2);
  Alcotest.(check bool) "self domination" true (Dom.dominates dom 1 1);
  Alcotest.(check bool) "no reverse domination" false (Dom.dominates dom 2 0)

let test_loops () =
  let cfg = Cfg.build countdown.Program.funcs.(0) in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "one loop" 1 (Loops.n_loops loops);
  let l = loops.Loops.loops.(0) in
  Alcotest.(check int) "header" 1 l.Loops.l_header;
  Alcotest.(check (list (pair int int))) "back edge" [ (1, 1) ]
    l.Loops.l_back_edges;
  Alcotest.(check (list int)) "body" [ 1 ] l.Loops.l_body;
  Alcotest.(check bool) "is_back_edge" true (Loops.is_back_edge loops 1 1);
  Alcotest.(check bool) "entry edge is not" false (Loops.is_back_edge loops 0 1);
  Alcotest.(check (list int)) "depths" [ 0; 1; 0 ]
    (Array.to_list loops.Loops.depth)

let test_reaching () =
  let f = countdown.Program.funcs.(0) in
  let cfg = Cfg.build f in
  let r = Dataflow.Reaching.compute f cfg in
  (* r0 is defined at pcs 0 and 2; both (the initial value entering the
     loop and the decremented one around the back edge) reach the loop
     header's entry, and the pseudo-def does not. *)
  Alcotest.(check (list int)) "real defs of r0" [ 0; 2 ]
    (List.map
       (fun b -> r.Dataflow.Reaching.def_pc.(b - r.Dataflow.Reaching.n_regs))
       (sorted r.Dataflow.Reaching.real_defs_of_reg.(0)))
  ;
  let in1 = r.Dataflow.Reaching.block_in.(1) in
  let reaches pc =
    List.exists
      (fun b ->
        Dataflow.Bits.get in1 b
        && r.Dataflow.Reaching.def_pc.(b - r.Dataflow.Reaching.n_regs) = pc)
      r.Dataflow.Reaching.real_defs_of_reg.(0)
  in
  Alcotest.(check bool) "initial def reaches header" true (reaches 0);
  Alcotest.(check bool) "back-edge def reaches header" true (reaches 2);
  Alcotest.(check bool) "zero-init killed" false
    (Dataflow.Bits.get in1 (Dataflow.Reaching.entry_bit r 0))

let test_liveness () =
  let f = countdown.Program.funcs.(0) in
  let cfg = Cfg.build f in
  let live = Dataflow.Liveness.compute f cfg in
  (* at the loop block's exit r0 is live (output + next iteration), r1 is
     live only around the back edge, r2 is dead (consumed by the Br) *)
  let out1 = live.Dataflow.Liveness.block_out.(1) in
  Alcotest.(check bool) "r0 live out of loop" true (Dataflow.Bits.get out1 0);
  Alcotest.(check bool) "r1 live out of loop" true (Dataflow.Bits.get out1 1);
  Alcotest.(check bool) "r2 dead out of loop" false (Dataflow.Bits.get out1 2);
  let out2 = live.Dataflow.Liveness.block_out.(2) in
  Alcotest.(check bool) "nothing live at exit" false
    (Dataflow.Bits.get out2 0 || Dataflow.Bits.get out2 1)

let test_bits_edge_cases () =
  let open Dataflow.Bits in
  (* zero-width vectors: every operation is a no-op, nothing crashes *)
  let z1 = create 0 and z2 = create 0 in
  fill z1;
  Alcotest.(check bool) "union on empty reports no change" false
    (union_into ~dst:z1 z2);
  Alcotest.(check bool) "inter on empty reports no change" false
    (inter_into ~dst:z1 z2);
  Alcotest.(check bool) "transfer on empty reports no change" false
    (transfer_into ~dst:z1 ~gen:z2 ~kill:z2 z2);
  let hits = ref 0 in
  iter z1 (fun _ -> incr hits);
  Alcotest.(check int) "iter on empty visits nothing" 0 !hits;
  (* transfer_into with dst == src: dst := gen ∪ (src \ kill) must read
     src's pre-assignment value even though it is the destination *)
  let v = create 8 in
  set v 1;
  set v 3;
  let gen = create 8 and kill = create 8 in
  set gen 2;
  set kill 3;
  Alcotest.(check bool) "aliased transfer changes" true
    (transfer_into ~dst:v ~gen ~kill v);
  Alcotest.(check (list int)) "aliased transfer result" [ 1; 2 ]
    (let l = ref [] in
     iter v (fun b -> l := b :: !l);
     List.sort compare !l);
  Alcotest.(check bool) "aliased transfer reaches fixpoint" false
    (transfer_into ~dst:v ~gen ~kill v);
  (* inter_into change detection: equal sets do not report a change *)
  let a = create 8 and b = create 8 in
  set a 0;
  set a 5;
  set b 0;
  set b 5;
  Alcotest.(check bool) "inter with equal set" false (inter_into ~dst:a b);
  clear b 5;
  Alcotest.(check bool) "inter with strict subset" true (inter_into ~dst:a b);
  Alcotest.(check bool) "then stable" false (inter_into ~dst:a b);
  Alcotest.(check bool) "bit 5 gone" false (get a 5);
  Alcotest.(check bool) "bit 0 kept" true (get a 0)

let test_defuse_unused_params () =
  (* three int parameters, only the first ever read: the others are
     still parameter-defined (no use-before-def pseudo-lint material)
     and not dead stores (nothing stores them) *)
  let p = mkprog ~n_iparams:3 [ Insn.Output 0; Insn.Halt ] in
  let f = p.Program.funcs.(0) in
  Alcotest.(check bool) "used param" true (Defuse.is_param f (Defuse.Ir 0));
  Alcotest.(check bool) "unused param is still a param" true
    (Defuse.is_param f (Defuse.Ir 2));
  Alcotest.(check bool) "non-param register" false
    (Defuse.is_param f (Defuse.Ir 3));
  Alcotest.(check bool) "float file is separate" false
    (Defuse.is_param f (Defuse.Fr 0));
  Alcotest.(check int) "unused parameters lint clean" 0
    (List.length (Lint.check p))

let test_defuse () =
  Alcotest.(check bool) "ftoi reads a float register" true
    (Defuse.uses (Insn.Ftoi (1, 2)) = [ Defuse.Fr 2 ]);
  Alcotest.(check bool) "ftoi writes an int register" true
    (Defuse.defs (Insn.Ftoi (1, 2)) = [ Defuse.Ir 1 ]);
  Alcotest.(check bool) "store is impure" false
    (Defuse.pure (Insn.Istore (0, 0, 0)));
  Alcotest.(check bool) "load is pure" true (Defuse.pure (Insn.Iload (0, 0, 0)));
  let f = countdown.Program.funcs.(0) in
  Alcotest.(check int) "unified space" 4 (Defuse.n_regs f);
  Alcotest.(check string) "float name" "f1" (Defuse.name (Defuse.Fr 1))

(* ---------- lint: unit corruptions on hand IR ---------- *)

let kinds p =
  Lint.check p |> List.map (fun f -> f.Lint.f_kind) |> List.sort_uniq compare

let test_lint_clean () =
  Alcotest.(check int) "countdown is clean" 0
    (List.length (Lint.check countdown));
  Alcotest.(check int) "compiled sample is clean" 0
    (List.length (Lint.check (T.compile T.sample_program)))

let test_lint_unreachable () =
  let p = mkprog [ Insn.Jump 3; Insn.Output 0; Insn.Halt; Insn.Halt ] in
  Alcotest.(check bool) "unreachable flagged" true
    (List.mem Lint.Unreachable_code (kinds p));
  let f = List.find (fun f -> f.Lint.f_kind = Lint.Unreachable_code) (Lint.check p) in
  Alcotest.(check int) "at the dead region" 1 f.Lint.f_pc

let test_lint_use_before_def () =
  (* r1 is never written: only the VM's zero-init reaches the Output *)
  let p = mkprog [ Insn.Output 1; Insn.Halt ] in
  Alcotest.(check (list string)) "use before def"
    [ Lint.kind_name Lint.Use_before_def ]
    (List.map Lint.kind_name (kinds p));
  (* the same read of a parameter register is fine *)
  let q = mkprog ~n_iparams:2 [ Insn.Output 1; Insn.Halt ] in
  Alcotest.(check int) "params are defined" 0 (List.length (Lint.check q))

let test_lint_dead_store () =
  let p =
    mkprog
      [ Insn.Iconst (0, 1); Insn.Iconst (0, 2); Insn.Output 0; Insn.Halt ]
  in
  let findings = Lint.check p in
  Alcotest.(check (list string)) "dead store"
    [ Lint.kind_name Lint.Dead_store ]
    (List.map Lint.kind_name (kinds p));
  Alcotest.(check int) "first const is the dead one" 0
    (List.find (fun f -> f.Lint.f_kind = Lint.Dead_store) findings).Lint.f_pc

let test_lint_infinite_loop () =
  let p = mkprog [ Insn.Jump 0 ] in
  Alcotest.(check bool) "self loop flagged" true
    (List.mem Lint.Infinite_loop (kinds p))

(* A two-block loop with no exit edge: the single-block special case
   never caught these. *)
let test_lint_infinite_loop_multiblock () =
  let p =
    mkprog
      [
        Insn.Iconst (0, 1);
        Insn.Iconst (1, 2);
        Insn.Ibini (Insn.Add, 0, 0, 1);
        Insn.Jump 4;
        Insn.Ibini (Insn.Add, 1, 1, 1);
        Insn.Jump 2;
      ]
  in
  Alcotest.(check (list string)) "only the loop finding"
    [ Lint.kind_name Lint.Infinite_loop ]
    (List.map Lint.kind_name (kinds p));
  let f = List.find (fun f -> f.Lint.f_kind = Lint.Infinite_loop) (Lint.check p) in
  Alcotest.(check int) "reported at the header" 2 f.Lint.f_pc;
  (* a call in the body can halt the program: not flagged *)
  let q =
    mkprog
      [
        Insn.Iconst (0, 1);
        Insn.Iconst (1, 2);
        Insn.Ibini (Insn.Add, 0, 0, 1);
        Insn.Jump 4;
        Insn.Call { callee = 0; iargs = []; fargs = []; dst = Insn.No_dest };
        Insn.Jump 2;
      ]
  in
  Alcotest.(check bool) "call suppresses the finding" false
    (List.mem Lint.Infinite_loop (kinds q))

let test_lint_invalid () =
  let p =
    mkprog
      [
        Insn.Iconst (0, 1);
        Insn.Br { cond = 0; target = 99; site = 0 };
        Insn.Halt;
      ]
  in
  Alcotest.(check (list string)) "invalid, nothing deeper"
    [ Lint.kind_name Lint.Invalid ]
    (List.map Lint.kind_name (kinds p));
  let f = List.hd (Lint.check p) in
  Alcotest.(check int) "no pc on validator findings" (-1) f.Lint.f_pc;
  (* render never raises *)
  Alcotest.(check bool) "render non-empty" true
    (String.length (Lint.render p (Lint.check p)) > 0)

(* ---------- property tests: corrupting a valid compiled program ---------- *)

let base = T.compile T.sample_program

let copy_prog (p : Program.t) =
  {
    p with
    Program.funcs =
      Array.map
        (fun f -> { f with Program.code = Array.copy f.Program.code })
        p.Program.funcs;
    sites = Array.copy p.Program.sites;
  }

let has kind p = List.exists (fun f -> f.Lint.f_kind = kind) (Lint.check p)

(* Retarget a randomly chosen branch site out of range: the lint must
   report the program invalid. *)
let prop_bad_target =
  QCheck2.Test.make ~count:50 ~name:"lint flags out-of-range branch targets"
    Gen.(pair nat (int_range 1 1000))
    (fun (pick, off) ->
      let p = copy_prog base in
      let s = p.Program.sites.(pick mod Array.length p.Program.sites) in
      let code = p.Program.funcs.(s.Program.s_func).Program.code in
      (match code.(s.Program.s_pc) with
      | Insn.Br b ->
          code.(s.Program.s_pc) <-
            Insn.Br { b with target = Array.length code + off }
      | _ -> failwith "site does not point at a Br");
      has Lint.Invalid p)

(* Duplicate one site id onto another branch: dense site numbering is
   broken, the lint must notice. *)
let prop_reused_site =
  QCheck2.Test.make ~count:50 ~name:"lint flags duplicated branch sites"
    Gen.(pair nat nat)
    (fun (a, b) ->
      let p = copy_prog base in
      let n = Array.length p.Program.sites in
      QCheck2.assume (n >= 2);
      let sa = a mod n and sb = b mod n in
      QCheck2.assume (sa <> sb);
      let site_b = p.Program.sites.(sb) in
      let code = p.Program.funcs.(site_b.Program.s_func).Program.code in
      (match code.(site_b.Program.s_pc) with
      | Insn.Br br -> code.(site_b.Program.s_pc) <- Insn.Br { br with site = sa }
      | _ -> failwith "site does not point at a Br");
      has Lint.Invalid p)

(* Overwrite a function's terminating instruction: control can fall off
   the end. *)
let prop_fall_off_end =
  QCheck2.Test.make ~count:50 ~name:"lint flags a falling-off-the-end function"
    Gen.nat
    (fun pick ->
      let p = copy_prog base in
      let f = p.Program.funcs.(pick mod Array.length p.Program.funcs) in
      QCheck2.assume (f.Program.n_iregs > 0);
      let code = f.Program.code in
      code.(Array.length code - 1) <- Insn.Iconst (0, 0);
      has Lint.Invalid p)

(* Replace a random pure instruction with a read of a register that has
   no definition anywhere: a definite use-before-def. *)
let prop_use_before_def =
  QCheck2.Test.make ~count:50 ~name:"lint flags injected use-before-def"
    Gen.(pair nat nat)
    (fun (fpick, ipick) ->
      let p = copy_prog base in
      let fi = fpick mod Array.length p.Program.funcs in
      let f = p.Program.funcs.(fi) in
      let candidates = ref [] in
      Array.iteri
        (fun pc insn -> if Defuse.pure insn then candidates := pc :: !candidates)
        f.Program.code;
      QCheck2.assume (!candidates <> []);
      let pcs = Array.of_list !candidates in
      let pc = pcs.(ipick mod Array.length pcs) in
      let fresh = f.Program.n_iregs in
      p.Program.funcs.(fi) <- { f with Program.n_iregs = fresh + 1 };
      p.Program.funcs.(fi).Program.code.(pc) <- Insn.Output fresh;
      has Lint.Use_before_def p)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bad_target; prop_reused_site; prop_fall_off_end; prop_use_before_def ]

(* ---------- program fingerprint ---------- *)

module Fingerprint = Fisher92_analysis.Fingerprint

let test_program_hash_constants () =
  let a = T.compile (T.counted_loop 100) in
  let b = T.compile (T.counted_loop 200) in
  Alcotest.(check int) "same branch sites" (Program.n_sites a)
    (Program.n_sites b);
  Alcotest.(check bool) "the builds execute differently" true
    ((T.run_vm a).total <> (T.run_vm b).total);
  Alcotest.(check bool) "a constant-only edit changes the hash" false
    (String.equal (Fingerprint.program_hash a) (Fingerprint.program_hash b));
  Alcotest.(check string) "two compiles of one source hash equal"
    (Fingerprint.program_hash a)
    (Fingerprint.program_hash (T.compile (T.counted_loop 100)));
  Alcotest.(check string) "and so do two compiles of the sample program"
    (Fingerprint.program_hash (T.compile T.sample_program))
    (Fingerprint.program_hash (T.compile T.sample_program))

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "blocks and edges" `Quick test_cfg_blocks;
          Alcotest.test_case "unreachable blocks" `Quick test_cfg_unreachable;
        ] );
      ( "dom+loops",
        [
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "natural loops" `Quick test_loops;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "reaching defs" `Quick test_reaching;
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "def/use atoms" `Quick test_defuse;
          Alcotest.test_case "bitvector edge cases" `Quick
            test_bits_edge_cases;
          Alcotest.test_case "unused parameters" `Quick
            test_defuse_unused_params;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean programs" `Quick test_lint_clean;
          Alcotest.test_case "unreachable code" `Quick test_lint_unreachable;
          Alcotest.test_case "use before def" `Quick test_lint_use_before_def;
          Alcotest.test_case "dead store" `Quick test_lint_dead_store;
          Alcotest.test_case "infinite loop" `Quick test_lint_infinite_loop;
          Alcotest.test_case "multi-block infinite loop" `Quick
            test_lint_infinite_loop_multiblock;
          Alcotest.test_case "invalid program" `Quick test_lint_invalid;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "program hash covers constants" `Quick
            test_program_hash_constants;
        ] );
      ("corruption properties", props);
    ]
