(* Scrubbing on a sharded store.

   Each shard's scrubber steps in turn over its own slice of the heap,
   with its own CRC table and quarantine set.  The delicate case is a
   dangling reference whose target lives in ANOTHER shard: the finding
   shard does not touch the owner's tables, so the store routes the
   quarantine to the owning shard after the step.  These tests pin that
   routing, in-memory corruption detection on every shard, the
   shard-locality of the quarantine invariant, and whole-store progress
   reporting. *)

open Pstore
open Scrub_util

let nshards = 4

let sharded_store () =
  Store.create ~config:{ Store.Config.default with Store.Config.shards = nshards } ()

let alloc_nodes store n =
  Array.init n (fun i ->
      let oid = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |] in
      Store.Session.set_root (Store.default_session store) (Printf.sprintf "r%d" i) (Pvalue.Ref oid);
      oid)

(* Two oids guaranteed to hash to different shards (the allocator is
   sequential, so a handful of oids covers several shards). *)
let cross_shard_pair store oids =
  let a = oids.(0) in
  let b =
    match
      Array.find_opt (fun o -> Store.shard_of store o <> Store.shard_of store a) oids
    with
    | Some b -> b
    | None -> Alcotest.fail "allocator never left shard 0?"
  in
  (a, b)

let mem_oid oid newly = List.exists (fun (o, _) -> Oid.compare o oid = 0) newly

let cross_shard_dangling_target_quarantined () =
  let store = sharded_store () in
  let oids = alloc_nodes store 16 in
  let a, b = cross_shard_pair store oids in
  Store.Session.set_field (Store.default_session store) a 1 (Pvalue.Ref b);
  (* sever b behind the store's back: a's strong ref now dangles into a
     foreign shard *)
  Heap.remove (Store.heap store) b;
  Store.mark_dirty store;
  let newly = scrub_pass store in
  check_bool "dangling foreign target reported" true (mem_oid b newly);
  check_bool "target quarantined" true (Store.is_quarantined store b);
  (* the quarantine lives in the owning shard, and only there *)
  let infos = Store.shard_info store in
  List.iter
    (fun (info : Store.shard_info) ->
      check_int
        (Printf.sprintf "shard %d quarantine count" info.Store.shard)
        (if info.Store.shard = Store.shard_of store b then 1 else 0)
        info.Store.quarantined)
    infos;
  (* dereferencing the hole degrades exactly as on a flat store *)
  match Store.Session.try_get (Store.default_session store) b with
  | Error (Failure.Quarantined _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "dereferencing the hole did not report quarantine"

let parallel_scrub_detects_corruption () =
  let store = sharded_store () in
  let oids = alloc_nodes store 64 in
  ignore (scrub_pass store : (Oid.t * string) list) (* prime every CRC *);
  let victim = oids.(7) in
  Faults.corrupt_entry (Store.heap store) victim;
  let newly = scrub_pass store in
  check_bool "corrupted object quarantined" true (mem_oid victim newly);
  check_bool "is_quarantined agrees" true (Store.is_quarantined store victim);
  (* everything else still verifies cleanly on the next pass *)
  let again = scrub_pass store in
  check_int "no further quarantines" 0 (List.length again)

let budget_splits_across_shards () =
  let store = sharded_store () in
  ignore (alloc_nodes store 64 : Oid.t array);
  (* a tiny budget still makes progress on every shard (an exact split:
     one object per shard) and the pass completes *)
  let r = Store.scrub ~budget:4 store in
  check_bool "small step scans something" true (r.Scrub.scanned > 0);
  let newly = scrub_pass store in
  check_int "healthy store quarantines nothing" 0 (List.length newly);
  check_int "healthy store stays clean" 0 (Store.stats store).Store.quarantined

(* The progress line covers the whole store, not shard 0: after one
   small step every shard has scanned its share, and what is still
   queued across all shards is exactly what the step left. *)
let progress_counts_every_shard () =
  let store = sharded_store () in
  ignore (alloc_nodes store 64 : Oid.t array);
  let r = Store.scrub ~budget:4 store in
  let progress = Store.scrub_progress store in
  check_int "queued across shards" (64 - r.Scrub.scanned) (Scrub.pending progress);
  check_int "no shard has finished a pass" 0 (Scrub.passes progress)

(* The budget bounds the whole step, split exactly across the shards.
   The remainder rotates, so four steps of budget 1 seed and scan every
   shard once; a budget below 1 is refused. *)
let budget_is_exact_and_rotates () =
  let store = sharded_store () in
  ignore (alloc_nodes store 64 : Oid.t array);
  for _ = 1 to nshards do
    check_int "a budget of one scans one object" 1 (Store.scrub ~budget:1 store).Scrub.scanned
  done;
  check_int "every shard took its turn" (64 - nshards)
    (Scrub.pending (Store.scrub_progress store));
  match Store.scrub ~budget:0 store with
  | _ -> Alcotest.fail "a zero budget was accepted"
  | exception Invalid_argument _ -> ()

let sharded_matches_flat_verdict () =
  (* the same damage on a flat and a sharded store quarantines the same
     oids — shard assignment must not change scrub semantics *)
  let damage store oids =
    let a, b = (oids.(2), oids.(9)) in
    Store.Session.set_field (Store.default_session store) a 1 (Pvalue.Ref b);
    Heap.remove (Store.heap store) b;
    Store.mark_dirty store;
    List.sort Oid.compare (List.map fst (scrub_pass store))
  in
  let flat = Store.create () in
  let flat_q = damage flat (alloc_nodes flat 16) in
  let sharded = sharded_store () in
  let sharded_q = damage sharded (alloc_nodes sharded 16) in
  check_int "same number quarantined" (List.length flat_q) (List.length sharded_q);
  List.iter2
    (fun a b -> check_bool "same oid quarantined" true (Oid.compare a b = 0))
    flat_q sharded_q

(* -- salvage-heavy demotion at open ------------------------------------------ *)

(* A backed store of [shards] shards holding [corrupt] rooted string
   victims on shard [target] and one intact record there.  After a clean
   close, each victim's payload is damaged in that shard's image, and
   [f] gets the reopened store and the intact record. *)
let with_salvaged_shard ~shards ~corrupt f =
  with_dir ~prefix:"scrub" @@ fun dir ->
  let path = Filename.concat dir "store.hpj" in
  let target = shards - 1 in
  let store =
    Store.create ~config:{ Store.Config.default with Store.Config.shards; backing = Some path } ()
  in
  let on_target oid = Store.shard_of store oid = target in
  let rec alloc_on make =
    let oid = make () in
    if on_target oid then oid else alloc_on make
  in
  let victims =
    List.init corrupt (fun i ->
        let text = Printf.sprintf "salvage-victim-%02d" i in
        let oid = alloc_on (fun () -> Store.Session.alloc_string (Store.default_session store) text) in
        Store.Session.set_root (Store.default_session store) text (Pvalue.Ref oid);
        text)
  in
  let intact = alloc_on (fun () -> Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int 42l |]) in
  Store.Session.set_root (Store.default_session store) "intact" (Pvalue.Ref intact);
  Store.stabilise store;
  Store.close store;
  let m = Manifest.layout path in
  let image = Manifest.image_file ~count:shards path target m.Manifest.epochs.(target) in
  let bytes = Bytes.of_string (read_file image) in
  List.iter
    (fun text ->
      let at = index_of (Bytes.to_string bytes) text + 3 in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xff)))
    victims;
  write_file image (Bytes.to_string bytes);
  let reopened = Store.open_file path in
  check_int "every damaged entry was salvaged" corrupt (List.length (Store.quarantined reopened));
  f reopened ~target intact

let seven_salvaged_entries_stay_healthy () =
  with_salvaged_shard ~shards:nshards ~corrupt:7 (fun store ~target:_ _ ->
      check_bool "below the threshold every shard stays healthy" true (Store.healthy store))

let eight_salvaged_entries_demote_one_shard () =
  with_salvaged_shard ~shards:nshards ~corrupt:8 (fun store ~target intact ->
      List.iter
        (fun (h : Store.shard_health) ->
          match h.Store.h_state with
          | Health.Healthy ->
            if h.Store.h_shard = target then Alcotest.fail "the salvaged shard stayed healthy"
          | Health.Degraded reason when h.Store.h_shard = target ->
            check_bool "the reason names the salvage" true
              (contains reason "salvage-heavy image load")
          | Health.Degraded _ | Health.Offline _ ->
            Alcotest.failf "shard %d was demoted too" h.Store.h_shard)
        (Store.health store);
      check_bool "an intact object on the demoted shard still reads" true
        (Store.Session.field (Store.default_session store) intact 0 = Pvalue.Int 42l);
      match Store.Session.set_field (Store.default_session store) intact 0 (Pvalue.Int 1l) with
      | () -> Alcotest.fail "a write to the demoted shard was accepted"
      | exception Failure.Shard_degraded { shard; _ } ->
        check_int "the refusal names the demoted shard" target shard)

(* Repair promotes the demoted shard and rewrites its image, so the
   store reopens healthy with the damaged entries still quarantined. *)
let salvage_demoted_shard_repairs () =
  with_salvaged_shard ~shards:nshards ~corrupt:8 (fun store ~target intact ->
      check_bool "repair had work to do" true (Store.repair store target <> None);
      check_bool "every shard is healthy again" true (Store.healthy store);
      Store.Session.set_field (Store.default_session store) intact 0 (Pvalue.Int 1l);
      Store.stabilise store;
      Store.close store;
      let reopened = Store.open_file (Option.get (Store.backing store)) in
      check_bool "the repaired store reopens healthy" true (Store.healthy reopened);
      check_int "the damaged entries stay quarantined" 8 (List.length (Store.quarantined reopened));
      check_bool "the write after repair is durable" true
        (Store.Session.field (Store.default_session reopened) intact 0 = Pvalue.Int 1l))

let one_shard_store_has_no_neighbour_to_demote_for () =
  with_salvaged_shard ~shards:1 ~corrupt:8 (fun store ~target:_ _ ->
      check_bool "a lone shard opens healthy" true (Store.healthy store))

let suite =
  [
    test "cross-shard dangling target routed to owner" cross_shard_dangling_target_quarantined;
    test "parallel scrub detects in-memory corruption" parallel_scrub_detects_corruption;
    test "budget splits across shards" budget_splits_across_shards;
    test "the budget is exact and its remainder rotates" budget_is_exact_and_rotates;
    test "sharded and flat scrubs agree" sharded_matches_flat_verdict;
    test "scrub progress counts every shard" progress_counts_every_shard;
    test "seven salvaged entries leave the shard healthy" seven_salvaged_entries_stay_healthy;
    test "eight salvaged entries demote that shard alone" eight_salvaged_entries_demote_one_shard;
    test "a one-shard store does not demote on salvage"
      one_shard_store_has_no_neighbour_to_demote_for;
    test "a salvage-demoted shard repairs and reopens healthy" salvage_demoted_shard_repairs;
  ]
