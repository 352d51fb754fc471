(* The DynamicCompiler (Figure 9): direct vs forked compilation, the
   try-direct-then-fork fallback, Java-level entry points, and Go. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let run_marry mode () =
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  ignore (Dynamic_compiler.compile_hyper_program ~mode vm hp);
  Vm.run_main vm ~cls:"MarryExample" [];
  let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
  check_output "married" "mary"
    (Rt.ocaml_string vm
       (Vm.call_virtual vm ~recv:spouse ~name:"getName" ~desc:"()Ljava.lang.String;" []))

let auto_falls_back_when_direct_breaks () =
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  Dynamic_compiler.direct_path_broken := true;
  Fun.protect
    ~finally:(fun () -> Dynamic_compiler.direct_path_broken := false)
    (fun () ->
      (* Auto mode must fall back to the forked mechanism (Figure 9's
         catch-and-fork). *)
      ignore (Dynamic_compiler.compile_hyper_program ~mode:Dynamic_compiler.Auto vm hp);
      Vm.run_main vm ~cls:"MarryExample" [];
      let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
      check_bool "married via fork" true (spouse <> Pvalue.Null))

let direct_mode_fails_when_broken () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Dynamic_compiler.direct_path_broken := true;
  Fun.protect
    ~finally:(fun () -> Dynamic_compiler.direct_path_broken := false)
    (fun () ->
      match Dynamic_compiler.compile_hyper_program ~mode:Dynamic_compiler.Direct vm hp with
      | _ -> Alcotest.fail "expected direct invocation to fail"
      | exception Failure _ -> ())

let compile_errors_propagate () =
  (* Source errors are NOT swallowed by the fallback. *)
  let _store, vm = fresh_hyper_vm () in
  let hp =
    Storage_form.create vm ~class_name:"Bad" ~text:"class Bad { this is not java }" ~links:[]
  in
  expect_compile_error (fun () -> ignore (Dynamic_compiler.compile_hyper_program vm hp))

let go_runs_principal_class () =
  let _store, vm = fresh_hyper_vm () in
  let text =
    "public class First {\n  public static void main(String[] args) { System.println(\"first runs\"); }\n}\n\
     class Second { }\n"
  in
  let hp = Storage_form.create vm ~class_name:"" ~text ~links:[] in
  let principal = Dynamic_compiler.go vm hp ~argv:[] in
  check_output "principal is first class" "First" principal;
  check_output "ran" "first runs\n" (Rt.take_output vm)

let go_honours_declared_principal () =
  let _store, vm = fresh_hyper_vm () in
  let text =
    "class A { public static void main(String[] args) { System.println(\"A\"); } }\n\
     public class B { public static void main(String[] args) { System.println(\"B\"); } }\n"
  in
  let hp = Storage_form.create vm ~class_name:"B" ~text ~links:[] in
  let principal = Dynamic_compiler.go vm hp ~argv:[] in
  check_output "declared principal" "B" principal;
  check_output "B ran" "B\n" (Rt.take_output vm)

let compile_strings_checks_names () =
  let _store, vm = fresh_hyper_vm () in
  expect_jerror "java.lang.NoClassDefFoundError" (fun () ->
      ignore (Dynamic_compiler.compile_strings vm ~names:[ "Expected" ] [ "class Actual { }" ]))

let java_level_compile_class () =
  (* Linguistic reflection from inside MiniJava: a running program
     generates source, calls the compiler, loads the class, and
     instantiates it through core reflection — the full Section 4 loop,
     all within compiled code. *)
  let _store, vm = fresh_hyper_vm () in
  compile_into vm
    [
      {|import compiler.DynamicCompiler;
public class Generator {
  public static String run() {
    String src = "public class Generated { public String hello() { return \"made at run time\"; } }";
    Class c = DynamicCompiler.compileClass("Generated", src);
    Object obj = c.newInstance();
    java.lang.reflect.Method m = c.getMethod("hello");
    return (String) m.invoke(obj, null);
  }
}
|};
    ];
  let result = Vm.call_static vm ~cls:"Generator" ~name:"run" ~desc:"()Ljava.lang.String;" [] in
  check_output "generated code ran" "made at run time" (Rt.ocaml_string vm result);
  check_bool "class is loaded" true (Rt.is_loaded vm "Generated")

let java_level_compile_hyper_program () =
  (* compileClasses(HyperProgram[]) from MiniJava (Figure 9). *)
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  compile_into vm
    [
      "import compiler.DynamicCompiler;\nimport hyper.HyperProgram;\n\
       public class Driver {\n\
      \  public static String run(HyperProgram hp) {\n\
      \    Class[] classes = DynamicCompiler.compileClass(hp);\n\
      \    return classes[0].getName();\n\
      \  }\n\
       }";
    ];
  let result =
    Vm.call_static vm ~cls:"Driver" ~name:"run" ~desc:"(Lhyper.HyperProgram;)Ljava.lang.String;"
      [ Pvalue.Ref hp ]
  in
  check_output "compiled from Java" "MarryExample" (Rt.ocaml_string vm result);
  Vm.run_main vm ~cls:"MarryExample" [];
  let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
  check_bool "effect observed" true (spouse <> Pvalue.Null)

let forked_universe_is_isolated () =
  (* The forked compilation must not leak definitions into the parent
     beyond the requested classes. *)
  let _store, vm = fresh_hyper_vm () in
  let before = List.length vm.Rt.load_order in
  ignore
    (Dynamic_compiler.compile_strings ~mode:Dynamic_compiler.Forked vm ~names:[ "Solo" ]
       [ "class Solo { }" ]);
  check_int "exactly one new class" (before + 1) (List.length vm.Rt.load_order);
  check_bool "Solo loaded" true (Rt.is_loaded vm "Solo")

let recompilation_replaces_class () =
  let _store, vm = fresh_hyper_vm () in
  let text1 = "public class R { public static void main(String[] args) { System.println(\"v1\"); } }" in
  let hp1 = Storage_form.create vm ~class_name:"R" ~text:text1 ~links:[] in
  ignore (Dynamic_compiler.go vm hp1 ~argv:[]);
  check_output "v1" "v1\n" (Rt.take_output vm);
  let text2 = "public class R { public static void main(String[] args) { System.println(\"v2\"); } }" in
  let hp2 = Storage_form.create vm ~class_name:"R" ~text:text2 ~links:[] in
  ignore (Dynamic_compiler.go vm hp2 ~argv:[]);
  check_output "v2 replaced v1" "v2\n" (Rt.take_output vm)

let go_reruns_static_initialisers_in mode () =
  (* Each Go relinks the principal class, so its statics start afresh
     even when the program is unchanged. *)
  let _store, vm = fresh_hyper_vm () in
  let text =
    "public class Counter {\n  static int n;\n\
    \  public static void main(String[] args) { n = n + 1; System.println(\"n=\" + n); }\n}\n"
  in
  let hp = Storage_form.create vm ~class_name:"Counter" ~text ~links:[] in
  for press = 1 to 3 do
    ignore (Dynamic_compiler.go ~mode vm hp ~argv:[]);
    check_output (Printf.sprintf "press %d" press) "n=1\n" (Rt.take_output vm)
  done

(* Each Go compiles, but an unchanged program is not relinked, so its
   presses after the first leave the store nothing to compact. *)
let unchanged_go_compacts_nothing_in mode () =
  with_store_file (fun path ->
      let store =
        Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } ()
      in
      let vm = Boot.boot_fresh store in
      Dynamic_compiler.install vm;
      let text =
        "public class Again { public static void main(String[] args) { System.println(\"again\"); } }"
      in
      let hp = Storage_form.create vm ~class_name:"Again" ~text ~links:[] in
      let press () =
        ignore (Dynamic_compiler.go ~mode vm hp ~argv:[]);
        check_output "the program ran" "again\n" (Rt.take_output vm);
        Store.stabilise store
      in
      press ();
      let compactions () = (Store.stats store).Store.compactions in
      let after_first = compactions () in
      press ();
      press ();
      check_int "presses 2 and 3 compact nothing" after_first (compactions ()))

(* -- the compile path: every compile runs the compiler, stores nothing
   of its own and sees the current schema -------------------------------- *)

let source_v n body =
  Printf.sprintf "public class K%d { public static int v() { return %s; } }" n body

let compile_cache_blobs store =
  List.filter (String.starts_with ~prefix:"hyper.ccache") (Store.Session.blob_keys (Store.default_session store))

let repeated_compile_runs_compiler () =
  let store, vm = fresh_hyper_vm () in
  let obs = Store.obs store in
  let src = source_v 0 "41" in
  for i = 1 to 3 do
    let rcs = Dynamic_compiler.compile_strings vm ~names:[ "K0" ] [ src ] in
    check_bool "K0 linked" true (List.exists (fun rc -> rc.Rt.rc_name = "K0") rcs);
    check_int (Printf.sprintf "compile %d ran the compiler" i) i (Obs.count obs Obs.Compile)
  done

let compile_leaves_no_blobs_across_reopen () =
  with_store_file (fun path ->
      let config = { Store.Config.default with Store.Config.backing = Some path } in
      let store = Store.create ~config () in
      let vm = Boot.boot_fresh store in
      Dynamic_compiler.install vm;
      let src = source_v 1 "7" in
      ignore (Dynamic_compiler.compile_strings vm ~names:[ "K1" ] [ src ]);
      check_int "compiling wrote no compile-cache blobs" 0
        (List.length (compile_cache_blobs store));
      Store.stabilise store;
      Store.close store;
      let store2 = Store.open_file path in
      check_int "no compile-cache blobs after reopen" 0
        (List.length (compile_cache_blobs store2));
      let vm2 = Boot.vm_for store2 in
      Dynamic_compiler.install vm2;
      let before = Obs.count (Store.obs store2) Obs.Compile in
      ignore (Dynamic_compiler.compile_strings vm2 ~names:[ "K1" ] [ src ]);
      check_int "the reopened store compiles afresh" (before + 1)
        (Obs.count (Store.obs store2) Obs.Compile);
      check_output "the recompiled class runs" "7"
        (Pvalue.to_string (Vm.call_static vm2 ~cls:"K1" ~name:"v" ~desc:"()I" []));
      Store.close store2)

let compile_after_evolution_sees_new_schema () =
  let _store, vm = fresh_hyper_vm () in
  ignore (marry_example vm);
  let uses_age =
    "public class UsesAge { public static void main(String[] args) {\n\
    \  System.println(\"age=\" + new Person(\"z\").getAge()); } }"
  in
  expect_compile_error (fun () ->
      Dynamic_compiler.compile_strings vm ~names:[ "UsesAge" ] [ uses_age ]);
  (* the evolved Person gains an [age] field and its getter *)
  let at = index_of person_source "  public String getName()" in
  let new_source =
    String.sub person_source 0 at ^ "  private int age;\n  public int getAge() { return age; }\n"
    ^ String.sub person_source at (String.length person_source - at)
  in
  let result = Evolution.evolve vm ~class_name:"Person" ~new_source () in
  check_output "evolved the right class" "Person" result.Evolution.class_name;
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "UsesAge" ] [ uses_age ]);
  Dynamic_compiler.run_main vm ~cls:"UsesAge" [];
  check_output "compiled against the evolved Person" "age=0\n" (Rt.take_output vm)

let compile_error_on_every_attempt () =
  let store, vm = fresh_hyper_vm () in
  let obs = Store.obs store in
  for i = 1 to 2 do
    expect_compile_error (fun () ->
        Dynamic_compiler.compile_strings vm ~names:[ "K2" ] [ "public class K2 { int" ]);
    check_int (Printf.sprintf "attempt %d ran the compiler" i) i (Obs.count obs Obs.Compile)
  done;
  check_bool "no K2 was linked" false (Rt.is_loaded vm "K2");
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "K2" ] [ source_v 2 "13" ]);
  check_output "the corrected source compiles and runs" "13"
    (Pvalue.to_string (Vm.call_static vm ~cls:"K2" ~name:"v" ~desc:"()I" []))

let suite =
  [
    test "direct compilation runs MarryExample" (run_marry Dynamic_compiler.Direct);
    test "forked compilation runs MarryExample" (run_marry Dynamic_compiler.Forked);
    test "auto falls back when direct breaks" auto_falls_back_when_direct_breaks;
    test "direct mode fails when broken" direct_mode_fails_when_broken;
    test "source errors propagate" compile_errors_propagate;
    test "Go runs the first class by default" go_runs_principal_class;
    test "Go honours the declared principal class" go_honours_declared_principal;
    test "compileClasses checks expected names" compile_strings_checks_names;
    test "linguistic reflection from MiniJava" java_level_compile_class;
    test "compileClass(HyperProgram) from MiniJava" java_level_compile_hyper_program;
    test "forked universe is isolated" forked_universe_is_isolated;
    test "recompilation replaces the class" recompilation_replaces_class;
    test "every Go re-runs the static initialisers"
      (go_reruns_static_initialisers_in Dynamic_compiler.Direct);
    test "every forked Go re-runs the static initialisers"
      (go_reruns_static_initialisers_in Dynamic_compiler.Forked);
    test "an unchanged Go compacts nothing"
      (unchanged_go_compacts_nothing_in Dynamic_compiler.Direct);
    test "an unchanged forked Go compacts nothing"
      (unchanged_go_compacts_nothing_in Dynamic_compiler.Forked);
    test "a repeated compile runs the compiler each time" repeated_compile_runs_compiler;
    test "compiles leave no cache blobs across stabilise and reopen"
      compile_leaves_no_blobs_across_reopen;
    test "a compile after evolution sees the new schema"
      compile_after_evolution_sees_new_schema;
    test "a compile error is reported on every attempt" compile_error_on_every_attempt;
  ]

let props = []
