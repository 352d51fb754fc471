(* Hyper-links (Table 1): production mapping, legality checking, and the
   value/location distinction. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let env_with_marker vm =
  compile_into vm [ "public interface Marker { }" ];
  Rt.class_env vm

let table1_mapping () =
  let _store, vm = fresh_hyper_vm () in
  let env = env_with_marker vm in
  let oid = Store.Session.alloc_string vm.Rt.session "x" in
  let expect link production =
    check_output
      (Format.asprintf "%a" Hyperlink.pp link)
      production
      (Hyperlink.production_name (Hyperlink.production_of env link))
  in
  expect (Hyperlink.L_type (Jtype.Class "java.lang.Object")) "ClassType";
  expect (Hyperlink.L_type Jtype.Int) "PrimitiveType";
  expect (Hyperlink.L_type (Jtype.Class "Marker")) "InterfaceType";
  expect (Hyperlink.L_type (Jtype.Array Jtype.Int)) "ArrayType";
  expect (Hyperlink.L_object oid) "Primary";
  expect (Hyperlink.L_primitive (Pvalue.Int 1l)) "Literal";
  expect (Hyperlink.L_static_field { cls = "A"; name = "f" }) "FieldAccess";
  expect (Hyperlink.L_instance_field { target = oid; cls = "A"; name = "f" }) "FieldAccess";
  expect (Hyperlink.L_static_method { cls = "A"; name = "m"; desc = "()V" }) "Name";
  expect (Hyperlink.L_instance_method { cls = "A"; name = "m"; desc = "()V" }) "Name";
  expect (Hyperlink.L_constructor { cls = "A"; desc = "()V" }) "Name";
  expect (Hyperlink.L_array_element { array = oid; index = 0 }) "ArrayAccess"

let table1_full_matrix () =
  (* Every one of the paper's 11 rows must verify as legal in its
     canonical context. *)
  let _store, vm = fresh_hyper_vm () in
  let env = env_with_marker vm in
  let matrix = Productions.table1 vm ~env in
  check_int "11 rows" 11 (List.length matrix);
  List.iter
    (fun (kind, production, legal) ->
      check_bool (kind ^ " -> " ^ production) true legal)
    matrix

let illegal_insertions_refused () =
  let _store, vm = fresh_hyper_vm () in
  let env = Rt.class_env vm in
  let oid = Store.Session.alloc_string vm.Rt.session "x" in
  let check_illegal name text pos link =
    match Productions.insertion_legal ~env { Editing_form.text; flat_links = [] } ~pos ~link with
    | Productions.Illegal _ -> ()
    | Productions.Legal -> Alcotest.failf "%s: expected illegal" name
  in
  (* an object link cannot stand where a type is required *)
  check_illegal "object at type position" "public class T {  f; }"
    (index_of "public class T {  f; }" " f; }")
    (Hyperlink.L_object oid);
  (* a type link cannot stand as a value *)
  check_illegal "type as value" "public class T { void m() { Object x = ; } }"
    (index_of "public class T { void m() { Object x = ; } }" "; } }")
    (Hyperlink.L_type Jtype.Int);
  (* a method link cannot stand as a bare value *)
  check_illegal "method as value" "public class T { void m() { Object x = ; } }"
    (index_of "public class T { void m() { Object x = ; } }" "; } }")
    (Hyperlink.L_static_method { cls = "A"; name = "m"; desc = "()V" })

let legal_insertions_accepted () =
  let _store, vm = fresh_hyper_vm () in
  let env = Rt.class_env vm in
  let oid = Store.Session.alloc_string vm.Rt.session "x" in
  let text = "public class T { void m() { Object x = ; } }" in
  let pos = index_of text "; } }" in
  match
    Productions.insertion_legal ~env { Editing_form.text; flat_links = [] } ~pos
      ~link:(Hyperlink.L_object oid)
  with
  | Productions.Legal -> ()
  | Productions.Illegal reason -> Alcotest.failf "expected legal: %s" reason

let incomplete_program_is_advisory () =
  (* Mid-composition the program does not parse; insertion is allowed. *)
  let _store, vm = fresh_hyper_vm () in
  let env = Rt.class_env vm in
  let oid = Store.Session.alloc_string vm.Rt.session "x" in
  let text = "public class T { void m() { " in
  match
    Productions.insertion_legal ~env { Editing_form.text; flat_links = [] }
      ~pos:(String.length text) ~link:(Hyperlink.L_object oid)
  with
  | Productions.Legal -> ()
  | Productions.Illegal reason -> Alcotest.failf "expected advisory-legal: %s" reason

let value_vs_location () =
  check_bool "field is location" true
    (Hyperlink.is_location (Hyperlink.L_static_field { cls = "A"; name = "f" }));
  check_bool "element is location" true
    (Hyperlink.is_location (Hyperlink.L_array_element { array = Oid.of_int 1; index = 0 }));
  check_bool "object is value" false (Hyperlink.is_location (Hyperlink.L_object (Oid.of_int 1)));
  check_bool "method is value" false
    (Hyperlink.is_location (Hyperlink.L_static_method { cls = "A"; name = "m"; desc = "()V" }))

let referenced_oids () =
  let o = Oid.of_int 3 in
  check_int "object pins" 1 (List.length (Hyperlink.referenced_oids (Hyperlink.L_object o)));
  check_int "field pins target" 1
    (List.length
       (Hyperlink.referenced_oids (Hyperlink.L_instance_field { target = o; cls = "A"; name = "f" })));
  check_int "type pins nothing" 0
    (List.length (Hyperlink.referenced_oids (Hyperlink.L_type Jtype.Int)))

let equality () =
  let o = Oid.of_int 5 in
  check_bool "equal objects" true (Hyperlink.equal (Hyperlink.L_object o) (Hyperlink.L_object o));
  check_bool "different kinds" false
    (Hyperlink.equal (Hyperlink.L_object o) (Hyperlink.L_primitive (Pvalue.Int 5l)));
  check_bool "different methods" false
    (Hyperlink.equal
       (Hyperlink.L_static_method { cls = "A"; name = "m"; desc = "()V" })
       (Hyperlink.L_static_method { cls = "A"; name = "n"; desc = "()V" }))

let suite =
  [
    test "Table 1 kind-to-production mapping" table1_mapping;
    test "Table 1 full legality matrix" table1_full_matrix;
    test "illegal insertions are refused" illegal_insertions_refused;
    test "legal insertions are accepted" legal_insertions_accepted;
    test "incomplete programs: advisory check" incomplete_program_is_advisory;
    test "value vs location classification" value_vs_location;
    test "referenced oids per kind" referenced_oids;
    test "hyper-link equality" equality;
  ]

let props = []
