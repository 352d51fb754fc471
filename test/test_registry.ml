(* The Figure 7 registry: password protection, weak references, uid
   allocation, reachability of hyper-linked entities. *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let passwords_checked () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  check_bool "built-in accepted" true (Registry.check_password vm Registry.built_in_password);
  check_bool "wrong rejected" false (Registry.check_password vm "letmein");
  expect_jerror "java.lang.SecurityException" (fun () ->
      ignore (Registry.add_hp vm ~password:"wrong" hp));
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  expect_jerror "java.lang.SecurityException" (fun () ->
      ignore (Registry.get_link vm ~password:"wrong" ~hp:0 ~link:0))

let uid_allocation_idempotent () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid1 = Registry.add_hp vm ~password:Registry.built_in_password hp in
  let uid2 = Registry.add_hp vm ~password:Registry.built_in_password hp in
  check_int "same uid" uid1 uid2;
  check_int "uid is offset" 0 uid1;
  check_int "count" 1 (Registry.count vm);
  check_int "stored in program" uid1 (Storage_form.uid vm hp);
  (* a second hyper-program gets the next offset *)
  let hp2 = Storage_form.create vm ~class_name:"X" ~text:"class X { }" ~links:[] in
  check_int "next uid" 1 (Registry.add_hp vm ~password:Registry.built_in_password hp2)

let get_link_retrieves () =
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  let link1 = Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1 in
  (* getObject on the HyperLinkHP must give back vangelis *)
  let obj = Vm.call_virtual vm ~recv:link1 ~name:"getObject" ~desc:"()Ljava.lang.Object;" [] in
  check_bool "same object" true (Pvalue.equal obj vangelis);
  expect_jerror "java.lang.IndexOutOfBoundsException" (fun () ->
      ignore (Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:99))

let weak_registry_allows_collection () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  check_int "live before" 1 (List.length (Registry.live_programs vm));
  (* no user reference to hp -> collected; registry weak slot cleared *)
  let stats = Store.gc vm.Rt.store in
  check_bool "weak cleared" true (stats.Gc.weak_cleared >= 1);
  check_int "live after" 0 (List.length (Registry.live_programs vm));
  check_bool "hp_at null" true (Registry.hp_at vm 0 = Pvalue.Null);
  expect_jerror "java.lang.IllegalStateException" (fun () ->
      ignore (Registry.get_link vm ~password:Registry.built_in_password ~hp:0 ~link:0))

let rooted_programs_survive () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.set_root vm.Rt.store "keep" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  ignore (Store.gc vm.Rt.store);
  check_int "still live" 1 (List.length (Registry.live_programs vm));
  check_bool "retrievable" true
    (Registry.get_link vm ~password:Registry.built_in_password ~hp:0 ~link:0 <> Pvalue.Null)

let linked_entities_stay_reachable () =
  (* Section 4.1: "the hyper-linked entities will thus remain accessible
     by the compiled form" — as long as the hyper-program lives, its
     links pin the entities. *)
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, mary = marry_example vm in
  Store.set_root vm.Rt.store "program" (Pvalue.Ref hp);
  (* the persons have NO other root *)
  ignore (Store.gc vm.Rt.store);
  check_bool "vangelis reachable through the hyper-program" true
    (Store.is_live vm.Rt.store (oid_of vangelis));
  check_bool "mary reachable" true (Store.is_live vm.Rt.store (oid_of mary));
  (* drop the program: entities go too *)
  Store.remove_root vm.Rt.store "program";
  ignore (Store.gc vm.Rt.store);
  check_bool "vangelis collected with the program" false
    (Store.is_live vm.Rt.store (oid_of vangelis))

let registry_grows () =
  let _store, vm = fresh_hyper_vm () in
  let hps =
    List.init 50 (fun i ->
        let hp =
          Storage_form.create vm ~class_name:(Printf.sprintf "C%d" i)
            ~text:(Printf.sprintf "class C%d { }" i) ~links:[]
        in
        Store.set_root vm.Rt.store (Printf.sprintf "hp%d" i) (Pvalue.Ref hp);
        hp)
  in
  List.iteri
    (fun i hp -> check_int "uid in order" i (Registry.add_hp vm ~password:Registry.built_in_password hp))
    hps;
  check_int "all registered" 50 (Registry.count vm);
  check_int "all live" 50 (List.length (Registry.live_programs vm))

let registry_persists () =
  let path = Filename.temp_file "registry" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let store = Store.create () in
      let vm = Boot.boot_fresh store in
      Dynamic_compiler.install vm;
      let hp, _, _ = marry_example vm in
      Store.set_root store "hp" (Pvalue.Ref hp);
      let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      let vm2 = Boot.vm_for store2 in
      Dynamic_compiler.install vm2;
      check_int "count survives" 1 (Registry.count vm2);
      check_bool "link retrievable after reopen" true
        (Registry.get_link vm2 ~password:Registry.built_in_password ~hp:uid ~link:0
        <> Pvalue.Null))

let prune_drops_legacy_compile_cache_blobs () =
  (* Stores written while a persistent compile cache existed carry its
     entries and index; gc + prune must clear them, and the store must
     still reopen and run a Go. *)
  with_store_file (fun path ->
      let config = { Store.Config.default with Store.Config.backing = Some path } in
      let store = Store.create ~config () in
      let vm = Boot.boot_fresh store in
      Dynamic_compiler.install vm;
      let legacy = [ ("hyper.ccache:0123abcd", "stale batch"); ("hyper.ccache.index", "0123abcd") ] in
      List.iter (fun (k, v) -> Store.set_blob store k v) legacy;
      Store.stabilise store;
      ignore (Store.gc store);
      ignore (Registry.prune vm);
      Store.stabilise store;
      Store.close store;
      let store = Store.open_file path in
      List.iter (fun (k, _) -> check_bool (k ^ " removed") true (Store.blob store k = None)) legacy;
      let vm = Boot.vm_for store in
      Dynamic_compiler.install vm;
      let text = "public class G { public static void main(String[] args) { System.println(\"go\"); } }" in
      let hp = Storage_form.create vm ~class_name:"G" ~text ~links:[] in
      check_output "Go ran the principal" "G" (Dynamic_compiler.go vm hp ~argv:[]);
      check_output "its output" "go\n" (Rt.take_output vm);
      Store.close store)

let prune_keeps_live_origins_and_other_blobs () =
  (* The legacy cleanup matches the compile cache's own keys only: a
     live program's origin record and unrelated blobs survive prune. *)
  let store, vm = fresh_hyper_vm () in
  let text = "public class Kept { public static void main(String[] args) { } }" in
  let hp = Storage_form.create vm ~class_name:"Kept" ~text ~links:[] in
  Store.set_root store "kept" (Pvalue.Ref hp);
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  let uid = Dynamic_compiler.origin_uid_of_class vm "Kept" in
  check_bool "Go recorded an origin" true (uid <> None);
  let others = [ ("user.notes", "keep me"); ("hyper.ccache-notes", "not the cache's") ] in
  List.iter (fun (k, v) -> Store.set_blob store k v) others;
  Store.set_blob store "hyper.ccache:feed" "stale batch";
  ignore (Store.gc store);
  let stats = Registry.prune vm in
  check_int "no live slot cleared" 0 stats.Registry.cleared_slots;
  check_int "no live origin removed" 0 stats.Registry.removed_origins;
  check_bool "the origin record stays" true
    (Dynamic_compiler.origin_uid_of_class vm "Kept" = uid);
  List.iter
    (fun (k, v) -> check_bool (k ^ " stays") true (Store.blob store k = Some v))
    others;
  check_bool "the legacy entry goes" true (Store.blob store "hyper.ccache:feed" = None)

let suite =
  [
    test "passwords are checked" passwords_checked;
    test "uid allocation is idempotent" uid_allocation_idempotent;
    test "getLink retrieves the HyperLinkHP" get_link_retrieves;
    test "weak registry allows collection" weak_registry_allows_collection;
    test "rooted programs survive gc" rooted_programs_survive;
    test "links keep entities reachable" linked_entities_stay_reachable;
    test "registry grows beyond initial capacity" registry_grows;
    test "registry persists across sessions" registry_persists;
    test "prune drops legacy compile-cache blobs" prune_drops_legacy_compile_cache_blobs;
    test "prune keeps live origins and other blobs" prune_keeps_live_origins_and_other_blobs;
  ]

let props = []
