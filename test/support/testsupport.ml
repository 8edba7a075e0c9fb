(* Shared helpers for the test suites. *)

module Ast = Fisher92_minic.Ast
module Dsl = Fisher92_minic.Dsl
module Compile = Fisher92_minic.Compile
module Interp = Fisher92_minic.Interp
module Vm = Fisher92_vm.Vm

let compile ?options prog = Compile.compile ?options prog

let run_vm ?(iargs = []) ?(fargs = []) ?(arrays = []) ir =
  Vm.run ir ~iargs ~fargs ~arrays

let run_interp ?(iargs = []) ?(fargs = []) ?(arrays = []) prog =
  Interp.run prog ~iargs ~fargs ~arrays

(* Outputs as strings, normalizing floats so that VM and interpreter
   streams compare exactly. *)
let show_float x =
  if Float.is_nan x then "nan" else Printf.sprintf "%.12g" x

let vm_outputs (r : Vm.result) =
  List.map
    (function
      | Vm.Out_int k -> string_of_int k
      | Vm.Out_float x -> show_float x)
    r.outputs

let interp_outputs (r : Interp.result) =
  List.map
    (function
      | Interp.O_int k -> string_of_int k
      | Interp.O_float x -> show_float x)
    r.outputs

(* Differential check: a MiniC program produces identical output through
   the reference interpreter and through every compiler configuration. *)
let check_compiler_agrees ?(iargs = []) ?(fargs = []) ?(arrays = [])
    ?(options_list = []) name prog =
  let expected = interp_outputs (run_interp ~iargs ~fargs ~arrays prog) in
  let configs =
    if options_list = [] then
      [
        ("default", Compile.default_options);
        ("dce", { Compile.default_options with dce = true });
        ("inline", { Compile.default_options with inline = true });
        ( "dce+inline",
          { Compile.default_options with dce = true; inline = true } );
        ("nofold", { Compile.default_options with fold = false });
      ]
    else options_list
  in
  List.iter
    (fun (cfg_name, options) ->
      let ir = compile ~options prog in
      let got = vm_outputs (run_vm ~iargs ~fargs ~arrays ir) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s [%s]" name cfg_name)
        expected got)
    configs

(* A small program exercising most constructs, reused by several suites. *)
let sample_program =
  let open Dsl in
  program "sample" ~entry:"main"
    ~fn_table:[ "double"; "square" ]
    ~globals:[ gint "counter" 0; gfloat "accum" 1.5 ]
    ~arrays:[ iarr "data" 32; farr "fdata" 16 ]
    [
      fn "double" [ pi "x" ] ~ret:Ast.Tint [ ret (v "x" *: i 2) ];
      fn "square" [ pi "x" ] ~ret:Ast.Tint [ ret (v "x" *: v "x") ];
      fn "gcd" [ pi "a"; pi "b" ] ~ret:Ast.Tint
        [
          while_ (v "b" <>: i 0)
            [ leti "t" (v "b"); set "b" (v "a" %: v "b"); set "a" (v "t") ];
          ret (v "a");
        ];
      fn "main" [ pi "n" ] ~ret:Ast.Tint
        [
          out (call "gcd" [ i 252; i 105 ]);
          for_ "k" (i 0) (v "n")
            [
              st "data" (v "k") (v "k" *: v "k");
              gset "counter" (g "counter" +: i 1);
            ];
          out (ld "data" (i 3));
          out (g "counter");
          leti "sum" (i 0);
          for_ "k" (i 0) (i 8)
            [
              switch_ (v "k" %: i 3)
                [
                  case 0 [ set "sum" (v "sum" +: i 100) ];
                  case 1
                    [
                      set "sum"
                        (v "sum" +: callp ~ret:Ast.Tint (fnptr "double") [ v "k" ]);
                    ];
                ]
                [ set "sum" (v "sum" +: callp ~ret:Ast.Tint (fnptr "square") [ v "k" ]) ];
            ];
          out (v "sum");
          letf "x" (g "accum");
          set "x" (sqrt_ (v "x" *: fl 6.0));
          when_ (v "x" >: fl 2.0) [ out (to_int (v "x" *: fl 1000.0)) ];
          leti "z" ((v "n" >: i 3) &&: (ld "data" (i 2) =: i 4));
          out (v "z");
          out (cond_ (v "z") (i 77) (i 88));
          ret (v "sum");
        ];
    ]

(* One counted loop whose bound is the only thing [bound] changes: two
   builds with the same branch sites that execute differently. *)
let counted_loop bound =
  let open Dsl in
  program "bounded" ~entry:"main"
    [
      fn "main" [] ~ret:Ast.Tint
        [
          leti "s" (i 0);
          for_ "k" (i 0) (i bound) [ set "s" (v "s" +: v "k") ];
          ret (v "s");
        ];
    ]
