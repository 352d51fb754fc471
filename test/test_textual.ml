(* The textual form (Section 4, Figure 8): per-kind retrieval
   expressions, splicing, imports, and compilability of the result. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let figure8_shape () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let textual = Dynamic_compiler.generate_textual_form vm hp in
  check_bool "import line" true (contains textual "import compiler.DynamicCompiler;");
  check_bool "static method by name" true (contains textual "Person.marry(");
  check_bool "getLink for object 1" true
    (contains textual "((Person) DynamicCompiler.getLink(\"passwd\", 0, 1).getObject())");
  check_bool "getLink for object 2" true
    (contains textual "DynamicCompiler.getLink(\"passwd\", 0, 2)")

let per_kind_expressions () =
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = oid_of (new_person vm "x") in
  let arr = Store.Session.alloc_array vm.Rt.session "LPerson;" [| Pvalue.Null |] in
  let expr link =
    Textual_form.link_expression vm ~password:"pw" ~hp_uid:3 ~link_index:7 link
  in
  check_output "static method" "Person.marry"
    (expr (Hyperlink.L_static_method { cls = "Person"; name = "marry"; desc = "x" }));
  check_output "instance method" "getName"
    (expr (Hyperlink.L_instance_method { cls = "Person"; name = "getName"; desc = "x" }));
  check_output "constructor" "Person"
    (expr (Hyperlink.L_constructor { cls = "Person"; desc = "x" }));
  check_output "class type" "Person" (expr (Hyperlink.L_type (Jtype.Class "Person")));
  check_output "primitive type" "int" (expr (Hyperlink.L_type Jtype.Int));
  check_output "array type" "Person[]" (expr (Hyperlink.L_type (Jtype.Array (Jtype.Class "Person"))));
  check_output "int literal" "42" (expr (Hyperlink.L_primitive (Pvalue.Int 42l)));
  check_output "long literal" "7L" (expr (Hyperlink.L_primitive (Pvalue.Long 7L)));
  check_output "bool literal" "true" (expr (Hyperlink.L_primitive (Pvalue.Bool true)));
  check_output "char literal" "'a'" (expr (Hyperlink.L_primitive (Pvalue.Char 97)));
  check_output "object retrieval"
    "((Person) DynamicCompiler.getLink(\"pw\", 3, 7).getObject())"
    (expr (Hyperlink.L_object p));
  check_output "array retrieval"
    "((Person[]) DynamicCompiler.getLink(\"pw\", 3, 7).getObject())"
    (expr (Hyperlink.L_object arr));
  check_output "static field" "Person.count"
    (expr (Hyperlink.L_static_field { cls = "Person"; name = "count" }));
  check_output "instance field"
    "((Person) DynamicCompiler.getLink(\"pw\", 3, 7).getObject()).name"
    (expr (Hyperlink.L_instance_field { target = p; cls = "Person"; name = "name" }));
  check_output "array element"
    "((Person[]) DynamicCompiler.getLink(\"pw\", 3, 7).getObject())[0]"
    (expr (Hyperlink.L_array_element { array = arr; index = 0 }))

let string_object_links () =
  (* A link to a String object casts to java.lang.String. *)
  let _store, vm = fresh_hyper_vm () in
  let s = Store.Session.alloc_string vm.Rt.session "hello" in
  check_output "string cast"
    "((java.lang.String) DynamicCompiler.getLink(\"pw\", 0, 0).getObject())"
    (Textual_form.link_expression vm ~password:"pw" ~hp_uid:0 ~link_index:0
       (Hyperlink.L_object s))

let no_import_when_not_needed () =
  let _store, vm = fresh_hyper_vm () in
  let text = "public class C { static int f() { return ; } }" in
  let pos = index_of text "; } }" in
  let hp =
    Storage_form.create vm ~class_name:"C" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_primitive (Pvalue.Int 5l); label = "5"; pos } ]
  in
  let textual = Dynamic_compiler.generate_textual_form vm hp in
  check_bool "no import" false (contains textual "import compiler.DynamicCompiler");
  check_bool "literal spliced" true (contains textual "return 5;")

let import_after_package () =
  let _store, vm = fresh_hyper_vm () in
  let s = Store.Session.alloc_string vm.Rt.session "x" in
  let text = "package my.app;\npublic class C { static Object f() { return ; } }" in
  let pos = index_of text "; } }" in
  let hp =
    Storage_form.create vm ~class_name:"my.app.C" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object s; label = "s"; pos } ]
  in
  let textual = Dynamic_compiler.generate_textual_form vm hp in
  check_bool "package stays first" true
    (String.length textual > 15 && String.sub textual 0 15 = "package my.app;");
  check_bool "import present" true (contains textual "import compiler.DynamicCompiler;")

let unregistered_program_rejected () =
  let _store, vm = fresh_hyper_vm () in
  let hp = Storage_form.create vm ~class_name:"C" ~text:"class C { }" ~links:[] in
  match Textual_form.generate vm hp with
  | _ -> Alcotest.fail "expected Textual_error"
  | exception Textual_form.Textual_error _ -> ()

let generated_form_compiles () =
  (* The textual form of every-kind links must be accepted by the
     compiler — the necessary-and-sufficient check of Section 4. *)
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = oid_of (new_person vm "linked") in
  let text =
    "public class T {\n  public static String f() {\n    Person p = ;\n    return p.getName();\n  }\n\
    \  public static void main(String[] args) { System.println(f()); }\n}\n"
  in
  let pos = index_of text ";\n    return" in
  let hp =
    Storage_form.create vm ~class_name:"T" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object p; label = "p"; pos } ]
  in
  Store.Session.set_root vm.Rt.session "t" (Pvalue.Ref hp);
  ignore (Dynamic_compiler.compile_hyper_program vm hp);
  Vm.run_main vm ~cls:"T" [];
  check_output "linked object used" "linked\n" (Rt.take_output vm)

let java_level_generate () =
  (* generateTextualForm is callable from MiniJava itself (Figure 9). *)
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  compile_into vm
    [
      "import compiler.DynamicCompiler;\nimport hyper.HyperProgram;\n\
       public class Gen { public static String doIt(HyperProgram hp) { return DynamicCompiler.generateTextualForm(hp); } }";
    ];
  let result =
    Vm.call_static vm ~cls:"Gen" ~name:"doIt" ~desc:"(Lhyper.HyperProgram;)Ljava.lang.String;"
      [ Pvalue.Ref hp ]
  in
  check_bool "textual form from Java" true
    (contains (Rt.ocaml_string vm result) "Person.marry")

let suite =
  [
    test "Figure 8 shape" figure8_shape;
    test "per-kind textual equivalents" per_kind_expressions;
    test "string object links cast to String" string_object_links;
    test "no import when no retrieval needed" no_import_when_not_needed;
    test "import placed after package declaration" import_after_package;
    test "unregistered program rejected" unregistered_program_rejected;
    test "generated textual form compiles and runs" generated_form_compiles;
    test "generateTextualForm callable from MiniJava" java_level_generate;
  ]

let props = []

let hyper_program_with_exceptions () =
  (* A hyper-program whose body catches an exception raised through a
     linked object: links and exception handling compose. *)
  let _store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = oid_of (new_person vm "grumpy") in
  let text =
    "public class Guarded {\n  public static void main(String[] args) {\n\
    \    try {\n      Person p = ;\n      if (p.getName().equals(\"grumpy\")) { throw new IllegalStateException(p.getName()); }\n\
    \    } catch (IllegalStateException e) {\n      System.println(\"refused: \" + e.getMessage());\n    }\n  }\n}\n"
  in
  let pos = index_of text ";\n      if" in
  let hp =
    Storage_form.create vm ~class_name:"Guarded" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object p; label = "grumpy"; pos } ]
  in
  Pstore.Store.Session.set_root vm.Rt.session "g" (Pvalue.Ref hp);
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  check_output "exception through linked object" "refused: grumpy\n" (Rt.take_output vm)

let suite = suite @ [ test "hyper-program with try/catch over a link" hyper_program_with_exceptions ]
