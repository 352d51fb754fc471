(* Linker: batch ordering, persistence of classes across store sessions,
   redefinition with instance migration. *)

open Pstore
open Minijava
open Helpers

let batch_ordering () =
  let _store, vm = fresh_vm () in
  (* C depends on B depends on A, supplied in reverse order: the linker
     must sort them. *)
  let cfs =
    Jcompiler.compile_units ~env:(Rt.class_env vm)
      [ "class A { } class B extends A { } class C extends B { }" ]
  in
  let reversed = List.rev cfs in
  let rcs = Linker.load_batch vm reversed in
  check_int "three classes" 3 (List.length rcs);
  check_bool "C loaded" true (Rt.is_loaded vm "C")

let missing_dependency_fails () =
  let _store, vm = fresh_vm () in
  let cfs =
    Jcompiler.compile_units ~env:(Rt.class_env vm) [ "class A { } class B extends A { }" ]
  in
  let b_only = List.filter (fun cf -> cf.Classfile.cf_name = "B") cfs in
  match Linker.load_batch vm b_only with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Linker.Link_error _ -> ()

let duplicate_definition_fails () =
  let _store, vm = fresh_vm () in
  compile_into vm [ "class A { }" ];
  (* the plain (non-redefine) path refuses duplicates *)
  expect_jerror "java.lang.LinkageError" (fun () ->
      ignore (Jcompiler.compile_and_load vm [ "class A { }" ]))

let classes_persist_across_sessions () =
  let path = Filename.temp_file "linker" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      compile_into vm [ person_source ];
      let p = new_person vm "persisted" in
      Store.Session.set_root (Store.default_session store) "p" p;
      Store.stabilise ~path store;
      (* second session: relink without recompiling *)
      let store2 = Store.open_file path in
      let vm2 = Boot.vm_for store2 in
      check_bool "Person relinked" true (Rt.is_loaded vm2 "Person");
      let p2 = Option.get (Store.Session.root (Store.default_session store2) "p") in
      let name = Vm.call_virtual vm2 ~recv:p2 ~name:"getName" ~desc:"()Ljava.lang.String;" [] in
      check_output "object usable" "persisted" (Rt.ocaml_string vm2 name))

let persisted_source_survives () =
  let path = Filename.temp_file "linker" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      compile_into vm [ person_source ];
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      let vm2 = Boot.vm_for store2 in
      let rc = Rt.get_class vm2 "Person" in
      check_bool "source travels with the class" true
        (rc.Rt.rc_classfile.Classfile.cf_source = Some person_source))

let redefinition_migrates_instances () =
  let _store, vm = fresh_vm () in
  compile_into vm [ "public class P { public int a; public int b; }" ];
  let p = Vm.new_instance vm ~cls:"P" ~desc:"()V" [] in
  let p_oid = oid_of p in
  Pstore.Store.Session.set_root vm.Rt.session "p" p;
  Pstore.Store.Session.set_field vm.Rt.session p_oid (Rt.field_slot vm "P" "a") (Pvalue.Int 7l);
  Pstore.Store.Session.set_field vm.Rt.session p_oid (Rt.field_slot vm "P" "b") (Pvalue.Int 8l);
  (* Redefine: drop b, add c, keep a. *)
  ignore
    (Jcompiler.compile_and_load ~redefine:true vm
       [ "public class P { public int c; public int a; }" ]);
  let a = Pstore.Store.Session.field vm.Rt.session p_oid (Rt.field_slot vm "P" "a") in
  let c = Pstore.Store.Session.field vm.Rt.session p_oid (Rt.field_slot vm "P" "c") in
  check_bool "a kept across reorder" true (Pvalue.equal a (Pvalue.Int 7l));
  check_bool "c defaulted" true (Pvalue.equal c (Pvalue.Int 0l))

let redefinition_rebuilds_subclass_layouts () =
  let _store, vm = fresh_vm () in
  compile_into vm
    [
      "public class Base { public int x; }\n\
       public class Derived extends Base { public int y; }";
    ];
  let d = Vm.new_instance vm ~cls:"Derived" ~desc:"()V" [] in
  let d_oid = oid_of d in
  Pstore.Store.Session.set_root vm.Rt.session "d" d;
  Pstore.Store.Session.set_field vm.Rt.session d_oid (Rt.field_slot vm "Derived" "y") (Pvalue.Int 5l);
  Pstore.Store.Session.set_field vm.Rt.session d_oid (Rt.field_slot vm "Base" "x") (Pvalue.Int 3l);
  (* Grow Base: Derived's layout must shift, y must survive. *)
  ignore
    (Jcompiler.compile_and_load ~redefine:true vm
       [ "public class Base { public int w; public int x; }" ]);
  let x = Pstore.Store.Session.field vm.Rt.session d_oid (Rt.field_slot vm "Base" "x") in
  let y = Pstore.Store.Session.field vm.Rt.session d_oid (Rt.field_slot vm "Derived" "y") in
  check_bool "x migrated" true (Pvalue.equal x (Pvalue.Int 3l));
  check_bool "y migrated" true (Pvalue.equal y (Pvalue.Int 5l));
  check_int "layout grew" 3 (Array.length (Rt.get_class vm "Derived").Rt.rc_layout)

let redefinition_widens_types () =
  let _store, vm = fresh_vm () in
  compile_into vm [ "public class Q { public int n; public String s; }" ];
  let q = Vm.new_instance vm ~cls:"Q" ~desc:"()V" [] in
  let q_oid = oid_of q in
  Pstore.Store.Session.set_root vm.Rt.session "q" q;
  Pstore.Store.Session.set_field vm.Rt.session q_oid (Rt.field_slot vm "Q" "n") (Pvalue.Int 9l);
  ignore
    (Jcompiler.compile_and_load ~redefine:true vm
       [ "public class Q { public long n; public int s; }" ]);
  let n = Pstore.Store.Session.field vm.Rt.session q_oid (Rt.field_slot vm "Q" "n") in
  let s = Pstore.Store.Session.field vm.Rt.session q_oid (Rt.field_slot vm "Q" "s") in
  check_bool "int widened to long" true (Pvalue.equal n (Pvalue.Long 9L));
  check_bool "incompatible type reset" true (Pvalue.equal s (Pvalue.Int 0l))

(* -- unit source blobs ------------------------------------------------------
   A class blob names its compilation unit's text by key; each distinct
   text is stored once, as [minijava.source:<hex MD5>]. *)

let source_prefix = "minijava.source:"
let source_key text = source_prefix ^ Digest.to_hex (Digest.string text)

let source_blobs store =
  Store.Session.blob_keys (Store.default_session store)
  |> List.filter (String.starts_with ~prefix:source_prefix)
  |> List.sort String.compare

let loaded_sources vm =
  List.filter_map
    (fun name -> (Rt.get_class vm name).Rt.rc_classfile.Classfile.cf_source)
    vm.Rt.load_order
  |> List.sort_uniq String.compare

(* The unit blobs are exactly the distinct texts of the loaded classes,
   one blob each, each holding its text. *)
let check_unit_blobs vm =
  let store = (Store.Session.store vm.Rt.session) in
  let texts = loaded_sources vm in
  Alcotest.(check (list string))
    "one unit blob per distinct source" (List.sort String.compare (List.map source_key texts))
    (source_blobs store);
  List.iter
    (fun text ->
      check_bool "unit blob holds its text" true (Store.Session.blob (Store.default_session store) (source_key text) = Some text))
    texts

(* Is this class blob in the by-key form?  Only that form needs a source
   resolver to decode. *)
let names_source_by_key store name =
  let data = Option.get (Store.Session.blob (Store.default_session store) ("minijava.class:" ^ name)) in
  match Classfile.decode data with
  | _ -> false
  | exception Codec.Decode_error _ -> true

let reopen path =
  let store = Store.open_file path in
  let vm = Boot.vm_for store in
  (store, vm)

let unit_sources_stored_once () =
  with_store_file (fun path ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      Hyperprog.Dynamic_compiler.install vm;
      Store.stabilise ~path store;
      check_unit_blobs vm;
      check_bool "fewer units than classes" true
        (List.length (source_blobs store) < List.length vm.Rt.load_order);
      (* The class-order blob lists every persisted class once, in
         definition order. *)
      check_output "class order" (String.concat "\n" vm.Rt.load_order)
        (Option.get (Store.Session.blob (Store.default_session store) Linker.order_blob));
      let store2, vm2 = reopen path in
      check_unit_blobs vm2;
      List.iter
        (fun name ->
          let cf = (Rt.get_class vm name).Rt.rc_classfile in
          let cf2 = (Rt.get_class vm2 name).Rt.rc_classfile in
          check_bool ("same source " ^ name) true (cf.Classfile.cf_source = cf2.Classfile.cf_source);
          check_bool ("by key " ^ name) true
            (cf.Classfile.cf_source = None || names_source_by_key store2 name))
        vm.Rt.load_order;
      (* Relink gives every class of a unit the one string stored for it. *)
      let source name = Option.get (Rt.get_class vm2 name).Rt.rc_classfile.Classfile.cf_source in
      check_bool "java.lang.Object and java.lang.String share one string" true
        (source "java.lang.Object" == source "java.lang.String");
      (* A batch whose classes are all listed leaves the class-order blob
         as it was: the very string, not a rewrite of it. *)
      ignore (Jcompiler.compile_and_load ~redefine:true vm2 [ person_source ]);
      let order = Option.get (Store.Session.blob (Store.default_session store2) Linker.order_blob) in
      check_output "Person listed last" (String.concat "\n" vm2.Rt.load_order) order;
      ignore (Jcompiler.compile_and_load ~redefine:true vm2 [ person_source ]);
      check_bool "an already-listed batch keeps the order string" true
        (Option.get (Store.Session.blob (Store.default_session store2) Linker.order_blob) == order))

let inline_blobs_still_relink () =
  with_store_file (fun path ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      compile_into vm [ person_source ];
      (* Rewrite the store as an older linker left it: every class file
         carries its source inline, and there are no unit blobs. *)
      List.iter
        (fun name ->
          Store.Session.set_blob (Store.default_session store) ("minijava.class:" ^ name)
            (Classfile.encode (Rt.get_class vm name).Rt.rc_classfile))
        vm.Rt.load_order;
      List.iter (Store.Session.remove_blob (Store.default_session store)) (source_blobs store);
      Store.stabilise ~path store;
      let store2, vm2 = reopen path in
      check_int "no unit blobs" 0 (List.length (source_blobs store2));
      List.iter
        (fun name ->
          check_bool ("same source " ^ name) true
            ((Rt.get_class vm name).Rt.rc_classfile.Classfile.cf_source
            = (Rt.get_class vm2 name).Rt.rc_classfile.Classfile.cf_source))
        vm.Rt.load_order;
      check_bool "Person inline" false (names_source_by_key store2 "Person");
      (* Persisting a class again moves it, and only it, to the key form. *)
      ignore (Jcompiler.compile_and_load ~redefine:true vm2 [ person_source ]);
      check_bool "Person by key" true (names_source_by_key store2 "Person");
      check_bool "java.lang.Object still inline" false
        (names_source_by_key store2 "java.lang.Object");
      Alcotest.(check (list string))
        "one unit blob" [ source_key person_source ] (source_blobs store2))

let redefinition_leaves_no_orphans () =
  let store, vm = fresh_vm () in
  let v1 = "public class A { public int x; }\npublic class B { }" in
  let a2 = "public class A { public long x; }" in
  let b2 = "public class B { public int y; }" in
  compile_into vm [ v1 ];
  check_unit_blobs vm;
  (* B still carries v1, so its blob stays. *)
  ignore (Jcompiler.compile_and_load ~redefine:true vm [ a2 ]);
  check_bool "v1 kept while B names it" true (Store.Session.blob (Store.default_session store) (source_key v1) <> None);
  check_unit_blobs vm;
  ignore (Jcompiler.compile_and_load ~redefine:true vm [ b2 ]);
  check_bool "v1 removed" true (Store.Session.blob (Store.default_session store) (source_key v1) = None);
  check_unit_blobs vm;
  (* An unchanged re-run leaves the stored text alone: the blob is the
     same string, not a rewrite of an equal one. *)
  let stored = Option.get (Store.Session.blob (Store.default_session store) (source_key b2)) in
  let b2_again = String.init (String.length b2) (String.get b2) in
  ignore (Jcompiler.compile_and_load ~redefine:true vm [ b2_again ]);
  check_bool "unit blob not rewritten" true (Option.get (Store.Session.blob (Store.default_session store) (source_key b2)) == stored);
  check_unit_blobs vm

let missing_unit_blob_fails_relink () =
  with_store_file (fun path ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      compile_into vm [ person_source ];
      Store.Session.remove_blob (Store.default_session store) (source_key person_source);
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      match Boot.vm_for store2 with
      | _ -> Alcotest.fail "expected Link_error"
      | exception Linker.Link_error msg ->
        check_bool "names the key" true (contains msg (source_key person_source)))

let rolled_back_compile_keeps_unit_blobs () =
  let store, vm = fresh_vm () in
  compile_into vm [ person_source ];
  let before = List.map (fun k -> (k, Store.Session.blob (Store.default_session store) k)) (source_blobs store) in
  let changed = person_source ^ "class Extra { }\n" in
  let inside = ref [] in
  (match
     Store.with_rollback store (fun () ->
         ignore (Jcompiler.compile_and_load ~redefine:true vm [ changed ]);
         inside := source_blobs store;
         failwith "abort")
   with
  | Ok () -> Alcotest.fail "expected the body to abort"
  | Error _ -> ());
  check_bool "the compile wrote the new unit" true (List.mem (source_key changed) !inside);
  check_bool "the compile removed the old unit" false (List.mem (source_key person_source) !inside);
  check_bool "unit blobs restored" true
    (before = List.map (fun k -> (k, Store.Session.blob (Store.default_session store) k)) (source_blobs store))

(* -- unchanged batches ------------------------------------------------------
   A batch whose every class file is byte-identical to the loaded one is
   not relinked: its instances are not touched, it journals nothing and
   the store owes no full image.  A batch with one changed class takes
   the redefinition path whole. *)

let backed_vm path =
  let store = Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } () in
  (store, Boot.boot_fresh store)

let compactions store = (Store.stats store).Store.compactions

let identical_recompile_touches_nothing () =
  with_store_file (fun path ->
      let store, vm = backed_vm path in
      compile_into vm [ person_source ];
      let people = List.init 3 (fun i -> oid_of (new_person vm (Printf.sprintf "p%d" i))) in
      List.iteri (fun i p -> Store.Session.set_root (Store.default_session store) (Printf.sprintf "p%d" i) (Pvalue.Ref p)) people;
      Store.stabilise store;
      let fields () = List.map (fun p -> (Store.Session.get_record (Store.default_session store) p).Heap.fields) people in
      let before = fields () in
      let person = Rt.get_class vm "Person" in
      let compacted = compactions store in
      ignore (Jcompiler.compile_and_load ~redefine:true vm [ person_source ]);
      check_int "the recompile journals nothing" 0 (Store.stats store).Store.pending_ops;
      check_bool "the loaded class stays" true (Rt.get_class vm "Person" == person);
      Store.stabilise store;
      List.iter2
        (fun f f' -> check_bool "the instance's fields are untouched" true (f == f'))
        before (fields ());
      check_int "no compaction" compacted (compactions store);
      check_output "an instance still answers" "p1"
        (Rt.ocaml_string vm
           (Vm.call_virtual vm ~recv:(Pvalue.Ref (List.nth people 1)) ~name:"getName"
              ~desc:"()Ljava.lang.String;" [])))

let mixed_batch_still_redefines () =
  with_store_file (fun path ->
      let store, vm = backed_vm path in
      let b = "public class B { public int y; }" in
      compile_into vm [ "public class A { public int x; }"; b ];
      let a = oid_of (Vm.new_instance vm ~cls:"A" ~desc:"()V" []) in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
      Store.Session.set_field (Store.default_session store) a (Rt.field_slot vm "A" "x") (Pvalue.Int 7l);
      Store.stabilise store;
      let compacted = compactions store in
      ignore
        (Jcompiler.compile_and_load ~redefine:true vm
           [ "public class A { public int w; public int x; }"; b ]);
      check_int "A's instance is reshaped" 2 (Array.length (Store.Session.get_record (Store.default_session store) a).Heap.fields);
      check_bool "x migrated" true
        (Pvalue.equal (Pvalue.Int 7l) (Store.Session.field (Store.default_session store) a (Rt.field_slot vm "A" "x")));
      Store.stabilise store;
      check_int "the next stabilise compacts" (compacted + 1) (compactions store))

(* What the paper's tools read of a class's source — the browser's
   Display Class panel, the source text, the hyper-code origin — is the
   same after a stabilise and a reopen. *)
let source_views_survive_reopen () =
  with_store_file (fun path ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      Hyperprog.Dynamic_compiler.install vm;
      let hp, _, _ = marry_example vm in
      ignore (Hyperprog.Dynamic_compiler.compile_hyper_program vm hp);
      let views vm =
        let b = Browser.Ocb.create vm in
        List.map
          (fun cls ->
            let rows = Browser.Ocb.rows b (Browser.Ocb.open_class b cls) in
            ( List.map (fun r -> (r.Browser.Ocb.row_label, r.Browser.Ocb.row_display)) rows,
              (Rt.get_class vm cls).Rt.rc_classfile.Classfile.cf_source,
              Store.Session.blob vm.Rt.session ("hyper.origin:" ^ cls) ))
          [ "Person"; "MarryExample"; "java.lang.String" ]
      in
      let before = views vm in
      Store.stabilise ~path store;
      let _store2, vm2 = reopen path in
      Hyperprog.Dynamic_compiler.install vm2;
      check_bool "class panels, sources and origins unchanged" true (before = views vm2);
      check_bool "origin recovers the hyper-program" true
        (Hyperprog.Dynamic_compiler.hyper_program_of_class vm2 "MarryExample" <> None))

let suite =
  [
    test "batch is ordered by inheritance" batch_ordering;
    test "missing dependency fails" missing_dependency_fails;
    test "duplicate definition fails without redefine" duplicate_definition_fails;
    test "classes persist across sessions" classes_persist_across_sessions;
    test "stored source survives relinking" persisted_source_survives;
    test "redefinition migrates instances by field name" redefinition_migrates_instances;
    test "redefinition rebuilds subclass layouts" redefinition_rebuilds_subclass_layouts;
    test "redefinition widens compatible field types" redefinition_widens_types;
    test "each unit's source is stored once" unit_sources_stored_once;
    test "inline class blobs still relink" inline_blobs_still_relink;
    test "redefinition leaves no orphan unit blob" redefinition_leaves_no_orphans;
    test "a missing unit blob fails relink" missing_unit_blob_fails_relink;
    test "a rolled-back compile keeps the unit blobs" rolled_back_compile_keeps_unit_blobs;
    test "source views survive a reopen" source_views_survive_reopen;
    test "an identical recompile touches no instance and compacts nothing"
      identical_recompile_touches_nothing;
    test "a batch with one changed class still redefines" mixed_batch_still_redefines;
  ]

let props = []
