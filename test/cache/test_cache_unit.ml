(* Unit tests for the registry's getLink memo (hits, explicit flushes,
   epoch invalidation, boundedness and the off switch), and for the
   uncached compile path in front of it: every compile runs the
   compiler, stores nothing of its own and sees the current schema. *)

open Pstore
open Minijava
open Hyperprog
open Cache_util

let password = Registry.built_in_password

(* -- the compile path ----------------------------------------------------- *)

let source_v n body =
  Printf.sprintf "public class K%d { public static int v() { return %s; } }" n body

let compile_cache_blobs store =
  List.filter (String.starts_with ~prefix:"hyper.ccache") (Store.blob_keys store)

let repeated_compile_runs_compiler () =
  let store, vm = fresh_hyper_vm () in
  let obs = Store.obs store in
  let src = source_v 0 "41" in
  for i = 1 to 3 do
    let rcs = Dynamic_compiler.compile_strings vm ~names:[ "K0" ] [ src ] in
    check_bool "K0 linked" true (List.exists (fun rc -> rc.Rt.rc_name = "K0") rcs);
    check_int (Printf.sprintf "compile %d ran the compiler" i) i (Obs.count obs Obs.Compile)
  done;
  check_int "no cache lookups counted" 0
    (Obs.count obs Obs.Cache_hit + Obs.count obs Obs.Cache_miss)

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

(* -- getLink memo --------------------------------------------------------- *)

let repeated_get_link_hits () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  let r1 = Registry.try_get_link vm ~password ~hp:uid ~link:1 in
  let r2 = Registry.try_get_link vm ~password ~hp:uid ~link:1 in
  check_bool "identical results" true (r1 = r2);
  let s = Registry.memo_stats vm in
  check_int "one miss" 1 s.Registry.misses;
  check_int "one hit" 1 s.Registry.hits

let add_hp_flushes () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  ignore (Registry.try_get_link vm ~password ~hp:uid ~link:0);
  check_bool "memo populated" true ((Registry.memo_stats vm).Registry.entries > 0);
  let hp2 =
    Storage_form.create vm ~class_name:"Other" ~text:"public class Other {}" ~links:[]
  in
  ignore (Registry.add_hp vm ~password hp2);
  check_int "add_hp flushed the memo" 0 (Registry.memo_stats vm).Registry.entries

let quarantine_invalidates () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, mary = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  (match Registry.try_get_link vm ~password ~hp:uid ~link:2 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "expected a live link, got %s" (Failure.describe f));
  Store.quarantine_oid store (oid_of mary) "unit-test damage";
  (match Registry.try_get_link vm ~password ~hp:uid ~link:2 with
  | Error (Failure.Quarantined _) -> ()
  | Ok _ -> Alcotest.fail "memo served a stale Ok across a quarantine"
  | Error f -> Alcotest.failf "expected Quarantined, got %s" (Failure.describe f));
  Store.clear_quarantine store (oid_of mary);
  match Registry.try_get_link vm ~password ~hp:uid ~link:2 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "expected recovery after clear, got %s" (Failure.describe f)

let gc_invalidates () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  (* the hyper-program is only weakly registered: once nothing else
     references it, a GC collects it *)
  (match Registry.try_get_link vm ~password ~hp:uid ~link:0 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "expected a live link, got %s" (Failure.describe f));
  ignore (Store.gc store);
  ignore (Registry.prune vm);
  match Registry.try_get_link vm ~password ~hp:uid ~link:0 with
  | Error (Failure.Collected _) -> ()
  | Ok _ -> Alcotest.fail "memo served a link to a collected program"
  | Error f -> Alcotest.failf "expected Collected, got %s" (Failure.describe f)

let memo_is_bounded () =
  let _store, vm = fresh_hyper_vm () in
  let cap = (Registry.memo_stats vm).Registry.capacity in
  for hp = 0 to cap + 50 do
    ignore (Registry.try_get_link vm ~password ~hp ~link:0)
  done;
  check_bool "entries bounded by capacity" true
    ((Registry.memo_stats vm).Registry.entries <= cap)

let disabled_memo_takes_slow_path () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  Registry.set_memo_enabled vm false;
  ignore (Registry.try_get_link vm ~password ~hp:uid ~link:0);
  ignore (Registry.try_get_link vm ~password ~hp:uid ~link:0);
  let s = Registry.memo_stats vm in
  check_int "no hits when disabled" 0 s.Registry.hits;
  check_int "nothing memoised" 0 s.Registry.entries

let compile_suite =
  [
    test "a repeated compile runs the compiler each time" repeated_compile_runs_compiler;
    test "compiles leave no cache blobs across stabilise and reopen"
      compile_leaves_no_blobs_across_reopen;
    test "a compile after evolution sees the new schema"
      compile_after_evolution_sees_new_schema;
    test "a compile error is reported on every attempt" compile_error_on_every_attempt;
  ]

let memo_suite =
  [
    test "repeated getLink hits the memo" repeated_get_link_hits;
    test "add_hp flushes the memo" add_hp_flushes;
    test "quarantine invalidates through the epoch" quarantine_invalidates;
    test "gc + prune expose collected programs" gc_invalidates;
    test "the memo is bounded" memo_is_bounded;
    test "a disabled memo takes the slow path" disabled_memo_takes_slow_path;
  ]
