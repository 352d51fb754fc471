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

let link_value vm ~hp ~link =
  match Registry.try_get_link vm ~password:Registry.built_in_password ~hp ~link with
  | Ok v -> v
  | Error f -> Alcotest.failf "expected link %d to resolve, got %s" link (Failure.describe f)

(* A registered MarryExample with its links 0 and 2 resolved. *)
let registered_marry vm =
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  let link0 = link_value vm ~hp:uid ~link:0 in
  let link2 = link_value vm ~hp:uid ~link:2 in
  check_bool "links 0 and 2 differ" false (Pvalue.equal link0 link2);
  (hp, uid, link0, link2)

let the_links vm hp =
  Vm.call_virtual vm ~recv:(Pvalue.Ref hp) ~name:"getTheLinks" ~desc:"()Ljava.util.Vector;" []

(* [hp.getTheLinks().setElementAt(link, i)], run by the VM: a plain
   element write to the program's public link vector. *)
let set_link vm hp i link =
  ignore
    (Vm.call_virtual vm ~recv:(the_links vm hp) ~name:"setElementAt"
       ~desc:"(Ljava.lang.Object;I)V"
       [ link; Pvalue.Int (Int32.of_int i) ])

let set_link0 vm hp link = set_link vm hp 0 link

let check_link0 vm uid what expected =
  check_bool what true (Pvalue.equal (link_value vm ~hp:uid ~link:0) expected)

(* getLink answers with the link the program names now, however the
   link vector changed since the last call. *)
let get_link_follows_rewritten_links () =
  let _store, vm = fresh_hyper_vm () in
  let hp, uid, _, link2 = registered_marry vm in
  set_link0 vm hp link2;
  check_link0 vm uid "link 0 is now link 2's HyperLinkHP" link2

let get_link_follows_a_committed_session () =
  let store, vm = fresh_hyper_vm () in
  let hp, uid, link0, link2 = registered_marry vm in
  let field cls oid name = Store.Session.field (Store.default_session store) oid (Rt.field_slot vm cls name) in
  let arr =
    oid_of (field "java.util.Vector" (oid_of (field Hyper_src.hyper_program_class hp "theLinks")) "data")
  in
  let h = Store.open_session store in
  Store.Session.set_elem h arr 0 link2;
  check_link0 vm uid "an uncommitted rewrite is not seen" link0;
  Store.Session.commit h;
  check_link0 vm uid "the committed rewrite is seen" link2

let get_link_follows_a_rollback () =
  let store, vm = fresh_hyper_vm () in
  let hp, uid, link0, link2 = registered_marry vm in
  (match
     Store.with_rollback store (fun () ->
         set_link0 vm hp link2;
         check_link0 vm uid "the rewrite is seen inside the transaction" link2;
         failwith "abort")
   with
  | Error (Stdlib.Failure _) -> ()
  | _ -> Alcotest.fail "expected the transaction to abort");
  check_link0 vm uid "the rollback restored link 0" link0

let get_link_sees_quarantine_and_its_clear () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, mary = marry_example vm in
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  ignore (link_value vm ~hp:uid ~link:2);
  Store.quarantine_oid store (oid_of mary) "unit-test damage";
  (match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link:2 with
  | Error (Failure.Quarantined _) -> ()
  | Ok _ -> Alcotest.fail "a link to a quarantined target resolved"
  | Error f -> Alcotest.failf "expected Quarantined, got %s" (Failure.describe f));
  Store.clear_quarantine store (oid_of mary);
  ignore (link_value vm ~hp:uid ~link:2)

let get_link_reports_collected_after_gc_and_prune () =
  (* the hyper-program is only weakly registered: once nothing else
     references it, a GC collects it *)
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  ignore (link_value vm ~hp:uid ~link:0);
  ignore (Store.gc store);
  ignore (Registry.prune vm);
  match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link:0 with
  | Error (Failure.Collected _) -> ()
  | Ok _ -> Alcotest.fail "a link of a collected program resolved"
  | Error f -> Alcotest.failf "expected Collected, got %s" (Failure.describe f)

let get_link_sees_a_program_registered_later () =
  let _store, vm = fresh_hyper_vm () in
  let _, uid, link0, _ = registered_marry vm in
  let later = uid + 1 in
  (match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:later ~link:0 with
  | Error (Failure.Collected _) -> ()
  | Ok _ -> Alcotest.fail "an unregistered uid resolved"
  | Error f -> Alcotest.failf "expected Collected, got %s" (Failure.describe f));
  let ann = new_person vm "ann" in
  let links = [ { Storage_form.link = Hyperlink.L_object (oid_of ann); label = "ann"; pos = 13 } ] in
  let hp2 = Storage_form.create vm ~class_name:"Later" ~text:"public class Later { }" ~links in
  check_int "the next uid" later (Registry.add_hp vm ~password:Registry.built_in_password hp2);
  let link = link_value vm ~hp:later ~link:0 in
  let obj = Vm.call_virtual vm ~recv:link ~name:"getObject" ~desc:"()Ljava.lang.Object;" [] in
  check_bool "the new program's link reaches ann" true (Pvalue.equal obj ann);
  check_link0 vm uid "the first program's link 0 is unchanged" link0

(* -- getLink against a model of the link vectors ------------------------- *)

(* A seeded workload over a backed store rewrites the rooted
   MarryExample's link vector, registers unrooted one-link programs,
   quarantines and clears mary, collects garbage, stabilises and
   reopens.  After every step each getLink must give what a plain model
   of the vectors predicts.  The model learns the HyperLinkHP instances
   through the VM ([getTheLinks().elementAt(i)], [getObject()]), never
   through the registry. *)

type step =
  | Rewrite of int * int (* slot, original link *)
  | Add_unrooted
  | Quarantine_mary
  | Clear_mary
  | Gc_prune
  | Stabilise
  | Reopen

let gen_steps rng n =
  List.init n (fun _ ->
      match Random.State.int rng 10 with
      | 0 | 1 | 2 -> Rewrite (Random.State.int rng 3, Random.State.int rng 3)
      | 3 -> Add_unrooted
      | 4 -> Quarantine_mary
      | 5 -> Clear_mary
      | 6 -> Gc_prune
      | 7 -> Stabilise
      | _ -> Reopen)

type model_sys = {
  path : string;
  mutable store : Store.t;
  mutable vm : Rt.t;
  mary : Pvalue.t;
  originals : Pvalue.t array; (* MarryExample's links, rooted so gc keeps them *)
  slots : int array; (* slot i holds [originals.(slots.(i))] *)
  mutable unrooted : (int * Pvalue.t * bool) list; (* uid, its link, collected *)
}

let element_at vm vector i =
  Vm.call_virtual vm ~recv:vector ~name:"elementAt" ~desc:"(I)Ljava.lang.Object;"
    [ Pvalue.Int (Int32.of_int i) ]

let get_object vm link =
  Vm.call_virtual vm ~recv:link ~name:"getObject" ~desc:"()Ljava.lang.Object;" []

let make_model_sys path =
  let store =
    Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } ()
  in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  let hp, _, mary = marry_example vm in
  Store.Session.set_root (Store.default_session store) "hp" (Pvalue.Ref hp);
  check_int "MarryExample is uid 0" 0 (Registry.add_hp vm ~password:Registry.built_in_password hp);
  let originals = Array.init 3 (element_at vm (the_links vm hp)) in
  Array.iteri (fun k l -> Store.Session.set_root (Store.default_session store) (Printf.sprintf "link%d" k) l) originals;
  { path; store; vm; mary; originals; slots = [| 0; 1; 2 |]; unrooted = [] }

let reopen_model_sys sys =
  Store.stabilise sys.store;
  Store.close sys.store;
  sys.store <- Store.open_file sys.path;
  sys.vm <- Boot.vm_for sys.store;
  Dynamic_compiler.install sys.vm

let hp_root sys =
  match Store.Session.root (Store.default_session sys.store) "hp" with
  | Some (Pvalue.Ref hp) -> hp
  | _ -> Alcotest.fail "the hp root is gone"

let run_step sys = function
  | Rewrite (slot, k) ->
    set_link sys.vm (hp_root sys) slot sys.originals.(k);
    sys.slots.(slot) <- k
  | Add_unrooted ->
    let text = "public class Unrooted { }" in
    let links =
      [ { Storage_form.link = Hyperlink.L_object (oid_of sys.mary); label = "mary"; pos = 16 } ]
    in
    let hp = Storage_form.create sys.vm ~class_name:"Unrooted" ~text ~links in
    let uid = Registry.add_hp sys.vm ~password:Registry.built_in_password hp in
    let link = element_at sys.vm (the_links sys.vm hp) 0 in
    sys.unrooted <- sys.unrooted @ [ (uid, link, false) ]
  | Quarantine_mary -> Store.quarantine_oid sys.store (oid_of sys.mary) "model damage"
  | Clear_mary -> Store.clear_quarantine sys.store (oid_of sys.mary)
  | Gc_prune ->
    ignore (Store.gc sys.store);
    ignore (Registry.prune sys.vm);
    sys.unrooted <- List.map (fun (uid, link, _) -> (uid, link, true)) sys.unrooted
  | Stabilise -> Store.stabilise sys.store
  | Reopen -> reopen_model_sys sys

let render_outcome = function
  | Ok v -> Printf.sprintf "ok %s" (Pvalue.to_string v)
  | Error (Failure.Quarantined _) -> "quarantined"
  | Error (Failure.Bad_index _) -> "bad-index"
  | Error (Failure.Collected _) -> "collected"
  | Error f -> Failure.describe f

(* The model's answer for a live link whose target may be mary. *)
let expected_link sys link =
  let mary = oid_of sys.mary in
  if Store.is_quarantined sys.store mary && Pvalue.equal (get_object sys.vm link) sys.mary
  then "quarantined"
  else Printf.sprintf "ok %s" (Pvalue.to_string link)

let check_against_model sys ~seed ~step seen =
  let check hp link expected =
    let actual =
      render_outcome
        (Registry.try_get_link sys.vm ~password:Registry.built_in_password ~hp ~link)
    in
    Hashtbl.replace seen (List.hd (String.split_on_char ' ' actual)) ();
    if actual <> expected then
      Alcotest.failf "seed %d, step %d: getLink %d %d gave %s, the model %s" seed step hp
        link actual expected
  in
  Array.iteri (fun i k -> check 0 i (expected_link sys sys.originals.(k))) sys.slots;
  check 0 3 "bad-index";
  List.iter
    (fun (uid, link, collected) ->
      if collected then check uid 0 "collected"
      else begin
        check uid 0 (expected_link sys link);
        check uid 1 "bad-index"
      end)
    sys.unrooted

(* Runs one seeded workload; returns the outcome kinds it saw. *)
let run_model_seed seed =
  let seen = Hashtbl.create 4 in
  with_store_file (fun path ->
      let sys = make_model_sys path in
      check_against_model sys ~seed ~step:0 seen;
      List.iteri
        (fun i step ->
          run_step sys step;
          check_against_model sys ~seed ~step:(i + 1) seen)
        (gen_steps (Random.State.make [| seed |]) 30);
      Store.close sys.store);
  seen

let get_link_matches_model seed () = ignore (run_model_seed seed)

let model_reaches_every_outcome () =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun seed -> Hashtbl.iter (fun k () -> Hashtbl.replace seen k ()) (run_model_seed seed))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun kind -> check_bool (kind ^ " reached") true (Hashtbl.mem seen kind))
    [ "ok"; "quarantined"; "bad-index"; "collected" ]

let weak_registry_allows_collection () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  check_int "live before" 1 (List.length (Registry.live_programs vm));
  (* no user reference to hp -> collected; registry weak slot cleared *)
  let stats = Store.gc (Store.Session.store vm.Rt.session) in
  check_bool "weak cleared" true (stats.Gc.weak_cleared >= 1);
  check_int "live after" 0 (List.length (Registry.live_programs vm));
  check_bool "hp_at null" true (Registry.hp_at vm 0 = Pvalue.Null);
  expect_jerror "java.lang.IllegalStateException" (fun () ->
      ignore (Registry.get_link vm ~password:Registry.built_in_password ~hp:0 ~link:0))

let rooted_programs_survive () =
  let _store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  Store.Session.set_root vm.Rt.session "keep" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
  ignore (Store.gc (Store.Session.store vm.Rt.session));
  check_int "still live" 1 (List.length (Registry.live_programs vm));
  check_bool "retrievable" true
    (Registry.get_link vm ~password:Registry.built_in_password ~hp:0 ~link:0 <> Pvalue.Null)

let linked_entities_stay_reachable () =
  (* Section 4.1: "the hyper-linked entities will thus remain accessible
     by the compiled form" — as long as the hyper-program lives, its
     links pin the entities. *)
  let _store, vm = fresh_hyper_vm () in
  let hp, vangelis, mary = marry_example vm in
  Store.Session.set_root vm.Rt.session "program" (Pvalue.Ref hp);
  (* the persons have NO other root *)
  ignore (Store.gc (Store.Session.store vm.Rt.session));
  check_bool "vangelis reachable through the hyper-program" true
    (Store.Session.is_live vm.Rt.session (oid_of vangelis));
  check_bool "mary reachable" true (Store.Session.is_live vm.Rt.session (oid_of mary));
  (* drop the program: entities go too *)
  Store.Session.remove_root vm.Rt.session "program";
  ignore (Store.gc (Store.Session.store vm.Rt.session));
  check_bool "vangelis collected with the program" false
    (Store.Session.is_live vm.Rt.session (oid_of vangelis))

let registry_grows () =
  let _store, vm = fresh_hyper_vm () in
  let hps =
    List.init 50 (fun i ->
        let hp =
          Storage_form.create vm ~class_name:(Printf.sprintf "C%d" i)
            ~text:(Printf.sprintf "class C%d { }" i) ~links:[]
        in
        Store.Session.set_root vm.Rt.session (Printf.sprintf "hp%d" i) (Pvalue.Ref hp);
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
      let hp, uid, _, link2 = registered_marry vm in
      Store.Session.set_root (Store.default_session store) "hp" (Pvalue.Ref hp);
      set_link0 vm hp link2;
      Store.stabilise ~path store;
      let store2 = Store.open_file path in
      let vm2 = Boot.vm_for store2 in
      Dynamic_compiler.install vm2;
      check_int "count survives" 1 (Registry.count vm2);
      check_link0 vm2 uid "the rewritten link 0 survives reopen" link2)

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
      List.iter (fun (k, v) -> Store.Session.set_blob (Store.default_session store) k v) legacy;
      Store.stabilise store;
      ignore (Store.gc store);
      ignore (Registry.prune vm);
      Store.stabilise store;
      Store.close store;
      let store = Store.open_file path in
      List.iter (fun (k, _) -> check_bool (k ^ " removed") true (Store.Session.blob (Store.default_session store) k = None)) legacy;
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
  Store.Session.set_root (Store.default_session store) "kept" (Pvalue.Ref hp);
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  let uid = Dynamic_compiler.origin_uid_of_class vm "Kept" in
  check_bool "Go recorded an origin" true (uid <> None);
  let others = [ ("user.notes", "keep me"); ("hyper.ccache-notes", "not the cache's") ] in
  List.iter (fun (k, v) -> Store.Session.set_blob (Store.default_session store) k v) others;
  Store.Session.set_blob (Store.default_session store) "hyper.ccache:feed" "stale batch";
  ignore (Store.gc store);
  let stats = Registry.prune vm in
  check_int "no live slot cleared" 0 stats.Registry.cleared_slots;
  check_int "no live origin removed" 0 stats.Registry.removed_origins;
  check_bool "the origin record stays" true
    (Dynamic_compiler.origin_uid_of_class vm "Kept" = uid);
  List.iter
    (fun (k, v) -> check_bool (k ^ " stays") true (Store.Session.blob (Store.default_session store) k = Some v))
    others;
  check_bool "the legacy entry goes" true (Store.Session.blob (Store.default_session store) "hyper.ccache:feed" = None)

(* -- the chunked vector ----------------------------------------------- *)

let password = Registry.built_in_password

let plain_program vm i =
  Storage_form.create vm ~class_name:(Printf.sprintf "C%d" i)
    ~text:(Printf.sprintf "class C%d { }" i) ~links:[]

(* Every uid's program, as [hp_at] reads it. *)
let uid_answers vm = List.init (Registry.count vm) (fun uid -> Registry.hp_at vm uid)

let check_answers what expected vm =
  List.iteri
    (fun uid (want, got) ->
      if not (Pvalue.equal want got) then
        Alcotest.failf "%s: uid %d holds %s, expected %s" what uid (Pvalue.to_string got)
          (Pvalue.to_string want))
    (List.combine expected (uid_answers vm))

(* Uids either side of the chunk boundaries (63, 64, 65 and 127, 128)
   keep their programs through a prune and a stabilise-and-reopen;
   unrooted programs are collected and read back as [Null]. *)
let uids_survive_chunk_boundaries () =
  with_store_file (fun path ->
      let store =
        Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } ()
      in
      let vm = Boot.boot_fresh store in
      Dynamic_compiler.install vm;
      let n = 130 in
      let rooted uid = uid mod 5 <> 0 in
      let hps = List.init n (plain_program vm) in
      List.iteri
        (fun i hp ->
          check_int "uid in order" i (Registry.add_hp vm ~password hp);
          if rooted i then Store.Session.set_root (Store.default_session store) (Printf.sprintf "hp%d" i) (Pvalue.Ref hp))
        hps;
      let expected =
        List.mapi (fun i hp -> if rooted i then Pvalue.Ref hp else Pvalue.Null) hps
      in
      check_answers "before gc" (List.map (fun hp -> Pvalue.Ref hp) hps) vm;
      ignore (Store.gc store);
      let pruned = Registry.prune vm in
      check_int "one slot pruned per unrooted program" (n / 5) pruned.Registry.cleared_slots;
      check_answers "after prune" expected vm;
      check_int "live programs" (n - (n / 5)) (List.length (Registry.live_programs vm));
      Store.stabilise store;
      Store.close store;
      let store = Store.open_file path in
      let vm = Boot.vm_for store in
      Dynamic_compiler.install vm;
      check_int "count survives reopen" n (Registry.count vm);
      check_answers "after reopen" expected vm;
      let hp = plain_program vm n in
      check_int "the next uid after reopen" n (Registry.add_hp vm ~password hp);
      check_bool "it reads back" true (Pvalue.equal (Registry.hp_at vm n) (Pvalue.Ref hp));
      Store.close store)

(* Words one call allocates: minor + major - promoted.  The minor count
   comes from [Gc.minor_words], which reads the allocation pointer;
   [Gc.counters]'s minor count can lag it. *)
let words_of f =
  let mi0 = Stdlib.Gc.minor_words () and _, pro0, ma0 = Stdlib.Gc.counters () in
  let v = f () in
  let mi1 = Stdlib.Gc.minor_words () and _, pro1, ma1 = Stdlib.Gc.counters () in
  (v, mi1 -. mi0 +. (ma1 -. ma0) -. (pro1 -. pro0))

(* The words each of 64 consecutive [add_hp] calls allocates, made
   after [base] programs are registered, with two snapshot sessions
   open.  Between calls one session commits and reopens, as a wire
   connection does after each publish, so every call writes in a fresh
   epoch and the store keeps a pre-image of what it writes. *)
let publish_words base =
  let store, vm = fresh_hyper_vm () in
  for i = 0 to base - 1 do
    ignore (Registry.add_hp vm ~password (plain_program vm i))
  done;
  let hps = Array.init 64 (fun i -> plain_program vm (base + i)) in
  let sessions = [| Store.open_session store; Store.open_session store |] in
  let words =
    Array.mapi
      (fun i hp ->
        let uid, words = words_of (fun () -> Registry.add_hp vm ~password hp) in
        check_int "uid in order" (base + i) uid;
        let k = i mod 2 in
        Store.Session.commit sessions.(k);
        sessions.(k) <- Store.open_session store;
        words)
      hps
  in
  Array.iter Store.Session.abort sessions;
  words

let mean words = Array.fold_left ( +. ) 0. words /. float_of_int (Array.length words)

let median words =
  let sorted = Array.copy words in
  Array.sort Float.compare sorted;
  sorted.(Array.length sorted / 2)

(* A publish under open sessions copies one chunk, not the vector: its
   allocation does not grow with the registry.  A flat vector copies
   1,024 slots per publish at 1,000 programs and 4,096 at 4,000.  The
   median is compared, not the mean: a resize of the store's own tables
   lands in one window or the other (a few hundred thousand words) and
   says nothing about the publish. *)
let publish_allocation_is_bounded () =
  let at_1000 = publish_words 1000 and at_4000 = publish_words 4000 in
  if Float.abs (median at_4000 -. median at_1000) > 16. || median at_4000 > 512. then
    Alcotest.failf
      "words per add_hp: median %.0f (mean %.0f) at 1,000 programs, median %.0f (mean %.0f) at 4,000"
      (median at_1000) (mean at_1000) (median at_4000) (mean at_4000)

(* The minor words each of 64 getLinks allocates, over [n] registered
   one-link programs (link 0 the primitive [int i]), read from
   [Gc.minor_words], which reads the allocation pointer. *)
let get_link_words n =
  let _store, vm = fresh_hyper_vm () in
  for i = 0 to n - 1 do
    let source =
      Printf.sprintf "//! class: L%d\n//! link 0: int %d\npublic class L%d {\n  // #<0>\n}\n" i i i
    in
    ignore (Registry.add_hp vm ~password (Hyper_source.to_storage vm source))
  done;
  Array.init 64 (fun k ->
      let hp = k * 37 mod n in
      let mi0 = Stdlib.Gc.minor_words () in
      let r = Registry.try_get_link vm ~password ~hp ~link:0 in
      let mi1 = Stdlib.Gc.minor_words () in
      (match r with
      | Ok _ -> ()
      | r -> Alcotest.failf "getLink %d 0 gave %s" hp (render_outcome r));
      mi1 -. mi0)

(* The getLink of the wire's read path reads one registry chunk slot and
   one element of the program's link vector, so it allocates the same
   whatever the registry holds: 86 minor words at both sizes.  A span
   label formatted while tracing is off reads 146. *)
let get_link_allocation_is_bounded () =
  let at_100 = get_link_words 100 and at_2000 = get_link_words 2000 in
  if median at_100 > 86. || median at_2000 > 86. then
    Alcotest.failf "minor words per getLink: median %.0f at 100 programs, %.0f at 2,000"
      (median at_100) (median at_2000)

(* A store written before the vector was chunked holds the weak cells
   directly in [programs]: build one as the flat [add_hp] did, then
   check that [install] rewrites it and every read gives the flat
   registry's answers. *)
let flat_registry_is_upgraded () =
  let store, vm = fresh_hyper_vm () in
  let reg = Registry.ensure vm in
  let slot name = Rt.field_slot vm Hyper_src.registry_class name in
  let n = 70 in
  let rooted uid = uid mod 3 <> 0 in
  compile_into vm [ person_source ];
  let person = new_person vm "ann" in
  let links = [ { Storage_form.link = Hyperlink.L_object (oid_of person); label = "ann"; pos = 0 } ] in
  let hps =
    List.init n (fun i ->
        Storage_form.create vm ~class_name:(Printf.sprintf "F%d" i)
          ~text:(Printf.sprintf "class F%d { }" i) ~links)
  in
  let flat = Store.Session.alloc_array (Store.default_session store) "Ljava.lang.Object;" (Array.make 128 Pvalue.Null) in
  List.iteri
    (fun i hp ->
      let cell = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref hp) in
      Store.Session.set_elem (Store.default_session store) flat i (Pvalue.Ref cell);
      Storage_form.set_uid vm hp i;
      if rooted i then Store.Session.set_root (Store.default_session store) (Printf.sprintf "f%d" i) (Pvalue.Ref hp))
    hps;
  Store.Session.set_field (Store.default_session store) reg (slot "programs") (Pvalue.Ref flat);
  Store.Session.set_field (Store.default_session store) reg (slot "count") (Pvalue.Int (Int32.of_int n));
  Store.Session.set_root (Store.default_session store) "person" person;
  ignore (Store.gc store);
  (* uid 0 was collected and pruned by the flat prune: its slot is null *)
  Store.Session.set_elem (Store.default_session store) flat 0 Pvalue.Null;
  Dynamic_compiler.install vm;
  check_bool "install replaced the flat vector" false
    (Pvalue.equal (Store.Session.field (Store.default_session store) reg (slot "programs")) (Pvalue.Ref flat));
  let expected = List.mapi (fun i hp -> if rooted i then Pvalue.Ref hp else Pvalue.Null) hps in
  check_int "count kept" n (Registry.count vm);
  check_answers "after install" expected vm;
  check_bool "live programs" true
    (Registry.live_programs vm
    = List.filteri (fun i _ -> rooted i) (List.mapi (fun i hp -> (i, hp)) hps));
  List.iteri
    (fun uid _ ->
      match Registry.try_get_link vm ~password ~hp:uid ~link:0 with
      | Ok _ when rooted uid -> ()
      | Error (Failure.Collected _) when not (rooted uid) -> ()
      | r -> Alcotest.failf "getLink %d 0 gave %s" uid (render_outcome r))
    hps;
  let pruned = Registry.prune vm in
  (* uids 0, 3, ..., 69 were collected; uid 0's slot was already empty *)
  check_int "prune clears the other collected slots" 23 pruned.Registry.cleared_slots;
  check_answers "after prune" expected vm;
  let programs = Store.Session.field (Store.default_session store) reg (slot "programs") in
  Dynamic_compiler.install vm;
  check_bool "a second install leaves the chunks alone" true
    (Pvalue.equal programs (Store.Session.field (Store.default_session store) reg (slot "programs")));
  let hp = plain_program vm n in
  check_int "the next uid" n (Registry.add_hp vm ~password hp);
  check_bool "it reads back" true (Pvalue.equal (Registry.hp_at vm n) (Pvalue.Ref hp))

let suite =
  [
    test "passwords are checked" passwords_checked;
    test "uid allocation is idempotent" uid_allocation_idempotent;
    test "getLink retrieves the HyperLinkHP" get_link_retrieves;
    test "getLink follows a rewritten link vector" get_link_follows_rewritten_links;
    test "getLink follows a link vector rewritten in a committed session"
      get_link_follows_a_committed_session;
    test "getLink follows a rolled-back rewrite back" get_link_follows_a_rollback;
    test "getLink reports a quarantined target until it is cleared"
      get_link_sees_quarantine_and_its_clear;
    test "getLink reports a program collected by gc and prune"
      get_link_reports_collected_after_gc_and_prune;
    test "getLink sees a program registered after earlier lookups"
      get_link_sees_a_program_registered_later;
    test "getLink matches the link-vector model (seed 1)" (get_link_matches_model 1);
    test "getLink matches the link-vector model (seed 2)" (get_link_matches_model 2);
    test "getLink matches the link-vector model (seed 3)" (get_link_matches_model 3);
    test "getLink matches the link-vector model (seed 4)" (get_link_matches_model 4);
    test "the model workload reaches every getLink outcome" model_reaches_every_outcome;
    test "weak registry allows collection" weak_registry_allows_collection;
    test "rooted programs survive gc" rooted_programs_survive;
    test "links keep entities reachable" linked_entities_stay_reachable;
    test "registry grows beyond initial capacity" registry_grows;
    test "registry persists across sessions" registry_persists;
    test "prune drops legacy compile-cache blobs" prune_drops_legacy_compile_cache_blobs;
    test "prune keeps live origins and other blobs" prune_keeps_live_origins_and_other_blobs;
    test "uids keep their programs across chunk boundaries" uids_survive_chunk_boundaries;
    test "a publish under open sessions allocates the same at 1,000 and 4,000 programs"
      publish_allocation_is_bounded;
    test "a getLink allocates at most 86 minor words at 100 and 2,000 programs"
      get_link_allocation_is_bounded;
    test "install upgrades a flat registry, keeping every answer" flat_registry_is_upgraded;
  ]

let props = []
