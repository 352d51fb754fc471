(* The .hp hyper-source interchange format: parsing, link resolution,
   printing, and the round trip. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let setup () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ person_source ];
  let p = new_person vm "anna" in
  Store.Session.set_root (Store.default_session store) "anna" p;
  (store, vm, p)

let parse_marry () =
  let _store, vm, p = setup () in
  ignore p;
  let source =
    "//! class: M\n//! link 0: method Person.marry\n//! link 1: root anna\n\
     public class M {\n  public static void main(String[] args) {\n    #<0>(#<1>, #<1>);\n  }\n}\n"
  in
  let hp = Hyper_source.to_storage vm source in
  check_output "class" "M" (Storage_form.class_name vm hp);
  let links = Storage_form.links vm hp in
  check_int "three markers" 3 (List.length links);
  (match (List.hd links).Storage_form.link with
  | Hyperlink.L_static_method { cls = "Person"; name = "marry"; desc } ->
    check_output "descriptor filled in" "(LPerson;LPerson;)V" desc
  | _ -> Alcotest.fail "expected method link");
  (* text has markers stripped *)
  check_bool "markers stripped" false (contains (Storage_form.text vm hp) "#<");
  (* and it runs *)
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  let spouse = Vm.call_virtual vm ~recv:p ~name:"getSpouse" ~desc:"()LPerson;" [] in
  check_bool "self-married anna" true (Pvalue.equal spouse p)

let all_spec_kinds () =
  let store, vm, p = setup () in
  let arr = Store.Session.alloc_array (Store.default_session store) "I" [| Pvalue.Int 1l |] in
  Store.Session.set_root (Store.default_session store) "xs" (Pvalue.Ref arr);
  let check spec expected_pp =
    let link = Hyper_source.parse_link vm spec in
    check_output spec expected_pp (Format.asprintf "%a" Hyperlink.pp link)
  in
  check "root anna" (Format.asprintf "object %a" Oid.pp (oid_of p));
  check (Printf.sprintf "object @%d" (Oid.to_int (oid_of p)))
    (Format.asprintf "object %a" Oid.pp (oid_of p));
  check "int 42" "primitive 42";
  check "long 7" "primitive 7L";
  check "boolean true" "primitive true";
  check "char 97" "primitive 'a'";
  check "type I" "type int";
  check "type LPerson;" "type Person";
  check "method Person.getName" "method Person.getName()Ljava.lang.String;";
  check "constructor Person" "constructor Person(Ljava.lang.String;)V";
  check "field Person.name" "static field Person.name";
  check "field root:anna Person.name"
    (Format.asprintf "field %a:Person.name" Oid.pp (oid_of p));
  check "element root:xs 0" (Format.asprintf "element %a[0]" Oid.pp arr)

let errors_rejected () =
  let _store, vm, _ = setup () in
  let expect source =
    match Hyper_source.to_storage vm source with
    | _ -> Alcotest.failf "expected Format_error for %S" source
    | exception Hyper_source.Format_error _ -> ()
  in
  expect "//! link 0: root nosuchroot\nclass X { Object o = #<0>; }";
  expect "//! class: X\nclass X { Object o = #<0>; }" (* undeclared marker *);
  expect "//! link 0: frobnicate yes\nclass X { Object o = #<0>; }";
  expect "//! link 0: int 1\n//! link 1: int 2\nclass X { Object o = #<0>; }"
  (* link 1 declared but unused *);
  expect "//! link 0: method Person.nosuch\nclass X { Object o = #<0>; }";
  expect "//! bogus header\nclass X { }"

let roundtrip () =
  let _store, vm, p = setup () in
  let text = "public class R { static Object o() { return ; } }" in
  let pos = index_of text "; } }" in
  let hp =
    Storage_form.create vm ~class_name:"R" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object (oid_of p); label = "anna"; pos } ]
  in
  let printed = Hyper_source.of_storage vm hp in
  check_bool "named root used" true (contains printed "root:anna");
  check_bool "marker present" true (contains printed "#<0>");
  let hp2 = Hyper_source.to_storage vm printed in
  check_output "text round trips" (Storage_form.text vm hp) (Storage_form.text vm hp2);
  let l1 = Storage_form.links vm hp and l2 = Storage_form.links vm hp2 in
  List.iter2
    (fun (a : Storage_form.link_spec) (b : Storage_form.link_spec) ->
      check_bool "same link" true (Hyperlink.equal a.Storage_form.link b.Storage_form.link);
      check_int "same pos" a.Storage_form.pos b.Storage_form.pos)
    l1 l2

let class_name_inferred () =
  let _store, vm, _ = setup () in
  let hp = Hyper_source.to_storage vm "public class Inferred { }" in
  check_output "inferred" "Inferred" (Storage_form.class_name vm hp)

let suite =
  [
    test "parse and run the marry hyper-source" parse_marry;
    test "all link spec kinds" all_spec_kinds;
    test "malformed sources rejected" errors_rejected;
    test "print/parse round trip" roundtrip;
    test "class name inferred from source" class_name_inferred;
  ]

let props = []
