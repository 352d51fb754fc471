(* Schema evolution by linguistic reflection (Section 7). *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let point_v1 = "public class Point { public int x; public int y; }"
let point_v2 = "public class Point { public int x; public int y; public int z; }"

let setup () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm [ point_v1 ];
  let p = Vm.new_instance vm ~cls:"Point" ~desc:"()V" [] in
  Store.Session.set_root (Store.default_session store) "p" p;
  Store.Session.set_field (Store.default_session store) (oid_of p) (Rt.field_slot vm "Point" "x") (Pvalue.Int 3l);
  Store.Session.set_field (Store.default_session store) (oid_of p) (Rt.field_slot vm "Point" "y") (Pvalue.Int 4l);
  (store, vm, p)

let add_field_preserves_data () =
  let store, vm, p = setup () in
  let result = Evolution.evolve vm ~class_name:"Point" ~new_source:point_v2 () in
  check_int "one instance" 1 result.Evolution.instances_updated;
  check_output "class" "Point" result.Evolution.class_name;
  let x = Store.Session.field (Store.default_session store) (oid_of p) (Rt.field_slot vm "Point" "x") in
  let z = Store.Session.field (Store.default_session store) (oid_of p) (Rt.field_slot vm "Point" "z") in
  check_bool "x preserved" true (Pvalue.equal x (Pvalue.Int 3l));
  check_bool "z defaulted" true (Pvalue.equal z (Pvalue.Int 0l))

let oid_preserved_so_links_survive () =
  let store, vm, p = setup () in
  (* hyper-program linking to the point *)
  let text = "public class Show { public static int f() { return .x; } }" in
  let pos = index_of text ".x; } }" in
  let hp =
    Storage_form.create vm ~class_name:"Show" ~text
      ~links:[ { Storage_form.link = Hyperlink.L_object (oid_of p); label = "p"; pos } ]
  in
  Store.Session.set_root (Store.default_session store) "show" (Pvalue.Ref hp);
  ignore (Evolution.evolve vm ~class_name:"Point" ~new_source:point_v2 ());
  (* the link's oid still resolves; recompiling the hyper-program works
     against the evolved schema *)
  ignore (Dynamic_compiler.compile_hyper_program vm hp);
  let r = Vm.call_static vm ~cls:"Show" ~name:"f" ~desc:"()I" [] in
  check_bool "link resolves x through evolved class" true (Pvalue.equal r (Pvalue.Int 3l))

let converter_runs () =
  let store, vm, p = setup () in
  let converter =
    "public class Conv { public static void convert(Point pt) { pt.z = pt.x + pt.y; } }"
  in
  ignore (Evolution.evolve vm ~class_name:"Point" ~new_source:point_v2 ~converter ());
  let z = Store.Session.field (Store.default_session store) (oid_of p) (Rt.field_slot vm "Point" "z") in
  check_bool "converter derived z" true (Pvalue.equal z (Pvalue.Int 7l))

let old_version_archived () =
  let _store, vm, _ = setup () in
  let r1 = Evolution.evolve vm ~class_name:"Point" ~new_source:point_v2 () in
  check_output "v1 archived" "minijava.class-archive:Point:v1" r1.Evolution.old_version_blob;
  let r2 =
    Evolution.evolve vm ~class_name:"Point"
      ~new_source:"public class Point { public int x; }" ()
  in
  check_output "v2 archived" "minijava.class-archive:Point:v2" r2.Evolution.old_version_blob;
  let versions = Evolution.archived_versions vm "Point" in
  check_int "two versions" 2 (List.length versions);
  let _, v1 = List.hd versions in
  check_bool "archived source available" true (v1.Classfile.cf_source = Some point_v1)

let evolve_with_transform () =
  let store, vm, p = setup () in
  ignore p;
  let result =
    Evolution.evolve_with vm ~class_name:"Point"
      ~transform:(fun src ->
        (* textual transformation of the stored source *)
        let before = "public int y; }" in
        let replacement = "public int y; public int w; }" in
        let idx = index_of src before in
        String.sub src 0 idx ^ replacement
        ^ String.sub src (idx + String.length before) (String.length src - idx - String.length before))
      ()
  in
  check_int "updated" 1 result.Evolution.instances_updated;
  ignore (Rt.field_slot vm "Point" "w");
  ignore store

let subclasses_follow () =
  let store, vm = fresh_hyper_vm () in
  compile_into vm
    [ "public class Base { public int a; }\npublic class Sub extends Base { public int b; }" ];
  let s = Vm.new_instance vm ~cls:"Sub" ~desc:"()V" [] in
  Store.Session.set_root (Store.default_session store) "s" s;
  Store.Session.set_field (Store.default_session store) (oid_of s) (Rt.field_slot vm "Sub" "b") (Pvalue.Int 11l);
  let result =
    Evolution.evolve vm ~class_name:"Base"
      ~new_source:"public class Base { public int a0; public int a; }" ()
  in
  check_bool "subclass affected" true (List.mem "Sub" result.Evolution.affected_classes);
  let b = Store.Session.field (Store.default_session store) (oid_of s) (Rt.field_slot vm "Sub" "b") in
  check_bool "subclass field survives layout shift" true (Pvalue.equal b (Pvalue.Int 11l))

let bootstrap_protected () =
  let _store, vm = fresh_hyper_vm () in
  match Evolution.evolve vm ~class_name:"java.lang.String" ~new_source:"class X {}" () with
  | _ -> Alcotest.fail "expected Evolution_error"
  | exception Evolution.Evolution_error _ -> ()

let unknown_class_rejected () =
  let _store, vm = fresh_hyper_vm () in
  match Evolution.evolve vm ~class_name:"Nope" ~new_source:"class Nope {}" () with
  | _ -> Alcotest.fail "expected Evolution_error"
  | exception Evolution.Evolution_error _ -> ()

let source_of_class_available () =
  let _store, vm, _ = setup () in
  check_bool "source available" true (Evolution.source_of_class vm "Point" = Some point_v1)

let suite =
  [
    test "adding a field preserves data" add_field_preserves_data;
    test "oids preserved: hyper-links survive evolution" oid_preserved_so_links_survive;
    test "converter compiled and run" converter_runs;
    test "old versions archived with source" old_version_archived;
    test "evolve_with transforms stored source" evolve_with_transform;
    test "subclass layouts and instances follow" subclasses_follow;
    test "bootstrap classes protected" bootstrap_protected;
    test "unknown class rejected" unknown_class_rejected;
    test "stored source is available" source_of_class_available;
  ]

let props = []
