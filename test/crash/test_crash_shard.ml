(* Multi-shard crash atomicity.

   A sharded journalled stabilise writes one batch record per dirty
   shard plus a store-level commit-marker record; the marker is the only
   witness that every shard's half landed.  These suites drive faults
   into every gap of that protocol and require recovery to land on a
   whole stabilise — never one shard's half of it (the randomized
   schedules over every configuration live in test/model):

   - a byte-budget sweep that tears the append path at
     every offset — inside a shard's batch, between shards, inside the
     marker record;
   - compaction crashes, full (manifest rename never lands: recover the
     previous state) and partial (the delta was journalled through the
     old journals first: recover the NEW state even though the image
     move died);
   - the fault layer's one-shot guarantee when every shard's sync could
     fire it;
   - a crash after a demotion, whose lost allocations recovery
     quarantines;
   - GC results and remembered sets against the test's own heap walk. *)

open Pstore
open Crash_util

let sp = Printf.sprintf
let nshards = 4

let shard_config ?(compaction_limit = 32) path =
  {
    Store.Config.default with
    Store.Config.compaction_limit;
    backing = Some path;
    shards = nshards;
  }

let make_store dir =
  Store.create ~config:(shard_config (Filename.concat dir "store.img")) ()

(* -- deterministic protocol tears ----------------------------------------- *)

let setup_spread dir =
  let path = Filename.concat dir "store.img" in
  let store = Store.create ~config:(shard_config path) () in
  let oids =
    Array.init 32 (fun i ->
        Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
  in
  Array.iteri (fun i oid -> Store.Session.set_root (Store.default_session store) (sp "r%d" i) (Pvalue.Ref oid)) oids;
  Store.stabilise store;
  (path, store, oids)

(* Tear the append path at every byte offset: the write order is shard
   batches then marker record, so small budgets die inside the first
   shard's batch, middling ones between shards, large ones inside the
   marker.  Whatever tears, recovery must produce exactly the pre-delta
   state — a fault that never fired must leave exactly the post-delta
   state.  Nothing in between, ever. *)
let torn_append_rolls_back_whole_stabilise () =
  let budgets = List.init 60 (fun i -> 1 + (i * 13)) in
  List.iter
    (fun budget ->
      with_dir (fun dir ->
          let path, store, oids = setup_spread dir in
          let before = fingerprint store in
          Array.iter (fun oid -> Store.Session.set_field (Store.default_session store) oid 0 (Pvalue.Int 7l)) oids;
          let after = fingerprint store in
          let outcome =
            Faults.with_fault (Faults.Fail_after_bytes budget) (fun () ->
                Store.stabilise store)
          in
          Store.crash store;
          let reopened = Store.open_file path in
          let fp = fingerprint reopened in
          (match outcome with
          | Ok () ->
            check_output (sp "budget %d: fault never fired, delta durable" budget) after fp
          | Error (Faults.Fault_injected _) ->
            check_output (sp "budget %d: torn stabilise rolled back whole" budget) before fp
          | Error e -> raise e);
          check_int (sp "budget %d: recovery quarantines nothing" budget) 0
            (Store.stats reopened).Store.quarantined;
          Integrity.check_exn reopened;
          Store.close reopened))
    budgets

(* A crashed FULL compaction (here: the first shard-image rename dies, so
   the manifest never moves) must recover the previous durable state. *)
let full_compaction_crash_recovers_last_stabilise () =
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      Array.iter (fun oid -> Store.Session.set_field (Store.default_session store) oid 0 (Pvalue.Int 1l)) oids;
      Store.stabilise store;
      let durable = fingerprint store in
      ignore (Store.gc store : Gc.stats) (* journal can't express a sweep: forces full *);
      Array.iter (fun oid -> Store.Session.set_field (Store.default_session store) oid 0 (Pvalue.Int 2l)) oids;
      (match
         Faults.with_fault Faults.Rename_fails (fun () -> Store.stabilise store)
       with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "rename fault never fired"
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "crashed full compaction recovers the pre-gc durable state" durable
        (fingerprint reopened);
      check_int "nothing quarantined" 0 (Store.stats reopened).Store.quarantined;
      Integrity.check_exn reopened;
      Store.close reopened)

(* A crashed PARTIAL compaction must NOT lose the delta that triggered
   it: the delta goes through the old journals and the commit marker
   before any image moves, so recovery replays it even though the image
   rewrite died. *)
let partial_compaction_crash_keeps_the_delta () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      (* per-shard limit: ceil(8/4) = 2 journalled records *)
      let store = Store.create ~config:(shard_config ~compaction_limit:8 path) () in
      let oids =
        Array.init 16 (fun i ->
            Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
      in
      Array.iteri (fun i oid -> Store.Session.set_root (Store.default_session store) (sp "r%d" i) (Pvalue.Ref oid)) oids;
      Store.stabilise store (* full compaction: all journals at depth 0 *);
      let hot = oids.(0) in
      (* push the hot shard over its slice of the limit *)
      Store.Session.set_field (Store.default_session store) hot 0 (Pvalue.Int 100l);
      Store.stabilise store;
      Store.Session.set_field (Store.default_session store) hot 0 (Pvalue.Int 101l);
      Store.stabilise store;
      Store.Session.set_field (Store.default_session store) hot 0 (Pvalue.Int 102l);
      let post = fingerprint store in
      (* this stabilise partially compacts the hot shard; its image
         rename dies AFTER the delta was journalled and marker-committed *)
      (match
         Faults.with_fault Faults.Rename_fails (fun () -> Store.stabilise store)
       with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "rename fault never fired (partial compaction not triggered?)"
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "delta survives the crashed partial compaction" post
        (fingerprint reopened);
      check_int "nothing quarantined" 0 (Store.stats reopened).Store.quarantined;
      Integrity.check_exn reopened;
      Store.close reopened)

(* A clean reopen must resume journalled appends, not rebuild the store:
   the first stabilise after [open_file] appends to the recovered
   journals (same image epochs, same marker file, WALs growing), and a
   further reopen replays those appends.  Pins a regression where every
   reopen forced a full compaction — journalled mode silently degraded
   to snapshot-per-process, and with the epochs also lost the compaction
   overwrote live image files in place. *)
let reopen_appends_without_compacting () =
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      Store.close store;
      let epochs_before = (Manifest.load path).Manifest.epochs in
      let reopened = Store.open_file path in
      Array.iter (fun oid -> Store.Session.set_field (Store.default_session reopened) oid 0 (Pvalue.Int 7l)) oids;
      Store.stabilise reopened;
      let expected = fingerprint reopened in
      Store.close reopened;
      let m = Manifest.load path in
      check_bool "image epochs unchanged by reopen + stabilise" true
        (m.Manifest.epochs = epochs_before);
      let wal_bytes k =
        let st = Unix.stat (Manifest.shard_wal path k m.Manifest.epochs.(k)) in
        st.Unix.st_size
      in
      let grew = ref false in
      for k = 0 to nshards - 1 do
        if wal_bytes k > Journal.header_size then grew := true
      done;
      check_bool "delta appended to a recovered journal" true !grew;
      let again = Store.open_file path in
      check_output "second reopen replays the appended delta" expected (fingerprint again);
      check_int "nothing quarantined" 0 (Store.stats again).Store.quarantined;
      Integrity.check_exn again;
      Store.close again)

(* One-shot fault semantics: every shard has a delta to write, so each
   shard's I/O could fire the armed fault.  It must fire exactly once
   (the stabilise must not wedge or double-raise), and the failed
   stabilise must roll back whole. *)
let fault_fires_once_across_domains () =
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      let before = fingerprint store in
      Array.iter (fun oid -> Store.Session.set_field (Store.default_session store) oid 0 (Pvalue.Int 9l)) oids;
      (match Faults.with_fault Faults.Fsync_fails (fun () -> Store.stabilise store) with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "fsync fault never fired"
      | Error e -> raise e);
      check_bool "fault disarmed after firing once" true (Faults.armed () = None);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "parallel append rolled back whole" before (fingerprint reopened);
      Integrity.check_exn reopened;
      Store.close reopened)

(* A demoted shard defers its delta; a crash then loses it while the
   healthy shards' deltas survive.  A surviving root can therefore name
   an object whose allocation died with the demoted shard: recovery must
   quarantine the hole (reads get a typed error, integrity holds) and
   never hand the oid out again. *)
let crash_after_demotion_quarantines_lost_targets () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      let store = Store.create ~config:(shard_config path) () in
      Store.stabilise store;
      let oid = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int 1l |] in
      let home = Store.shard_of store oid in
      let name = key_for ~tag:"lost" ~count:nshards ((home + 1) mod nshards) in
      Store.Session.set_root (Store.default_session store) name (Pvalue.Ref oid);
      Store.degrade_shard store home "test: deferred delta";
      Store.stabilise store (* the root's shard persists; the object's does not *);
      Store.crash store;
      let reopened = Store.open_file path in
      check_bool "the root survived" true (Store.Session.root (Store.default_session reopened) name = Some (Pvalue.Ref oid));
      check_bool "the lost target is quarantined" true (Store.is_quarantined reopened oid);
      Integrity.check_exn reopened;
      let fresh = Store.Session.alloc_record (Store.default_session reopened) "Node" [| Pvalue.Int 2l |] in
      check_bool "the lost oid is not reused" true (Oid.compare fresh oid > 0);
      Store.close reopened)

(* A hot shard rewrites only its own bytes.  With compaction_limit 0
   every stabilise compacts, but only the shards that have something to
   write: a burst confined to shard 0's oids must advance shard 0's image
   epoch and leave the image files of shards 1-3 as they were, by name
   and by byte. *)
let hot_shard_compacts_alone () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      let store = Store.create ~config:(shard_config ~compaction_limit:0 path) () in
      let oids =
        Array.init 64 (fun i ->
            Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
      in
      Store.Session.set_root (Store.default_session store) "bulk" (Pvalue.Ref oids.(0));
      Store.stabilise store;
      let images () =
        let m = Manifest.load path in
        let epochs = m.Manifest.epochs in
        (epochs, Array.mapi (fun k e -> read_file (Manifest.shard_image path k e)) epochs)
      in
      let epochs, bytes = images () in
      let hot =
        List.filter (fun o -> Manifest.shard_of_oid ~count:nshards o = 0) (Array.to_list oids)
      in
      check_bool "shard 0 holds some of the oids" true (hot <> []);
      List.iteri (fun i o -> Store.Session.set_field (Store.default_session store) o 0 (Pvalue.Int (Int32.of_int (1000 + i)))) hot;
      Store.stabilise store;
      let expected = fingerprint store in
      let epochs', bytes' = images () in
      check_bool "shard 0's image epoch advanced" true (epochs'.(0) > epochs.(0));
      for k = 1 to nshards - 1 do
        check_int (sp "shard %d keeps its image file" k) epochs.(k) epochs'.(k);
        check_bool (sp "shard %d's image bytes are unchanged" k) true
          (String.equal bytes.(k) bytes'.(k))
      done;
      Store.close store;
      let reopened = Store.open_file path in
      check_output "the hot writes survive a reopen" expected (fingerprint reopened);
      Store.close reopened)

(* GC results and remembered sets, pinned against a walk the test does
   itself.  A fixed graph on 4 shards: a live chain and a fan array give
   cross-shard edges, a dead chain points into the live one (an edge
   from garbage, which no remembered set may count), and two weak cells
   sit behind a root, one whose target is only weakly held and must be
   cleared.  The expected [Gc.stats] and per-shard remembered counts come
   from a reachability walk over [Store.heap] taken before the sweep: a
   remembered set holds the live oids of its shard that some live object
   on another shard references strongly. *)
let gc_remembered_sets_match_a_walk () =
  with_dir (fun dir ->
      let store = make_store dir in
      let node i next = Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); next |] in
      let chain = Array.make 24 Pvalue.Null in
      for i = 23 downto 0 do
        chain.(i) <- Pvalue.Ref (node i (if i = 23 then Pvalue.Null else chain.(i + 1)))
      done;
      Store.Session.set_root (Store.default_session store) "chain" chain.(0);
      let fan =
        Store.Session.alloc_array (Store.default_session store) "Node"
          (Array.init 9 (fun i -> if i < 8 then chain.(3 * i) else Pvalue.Null))
      in
      Store.Session.set_root (Store.default_session store) "fan" (Pvalue.Ref fan);
      (* a record only its own shard references: no remembered set holds it
         (the misses allocated on the way are garbage) *)
      let rec local () =
        let o = node 300 Pvalue.Null in
        if Store.shard_of store o = Store.shard_of store fan then o else local ()
      in
      Store.Session.set_elem (Store.default_session store) fan 8 (Pvalue.Ref (local ()));
      let dead = ref chain.(5) in
      for i = 0 to 9 do
        dead := Pvalue.Ref (node (100 + i) !dead)
      done;
      let doomed = node 200 Pvalue.Null in
      let weak_live = Store.Session.alloc_weak (Store.default_session store) chain.(7) in
      let weak_dead = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref doomed) in
      Store.Session.set_root (Store.default_session store) "weaks"
        (Pvalue.Ref (Store.Session.alloc_array (Store.default_session store) "Weak" [| Pvalue.Ref weak_live; Pvalue.Ref weak_dead |]));
      let heap = Store.heap store in
      let reached = Hashtbl.create 64 in
      let rec visit oid =
        if Heap.is_live heap oid && not (Hashtbl.mem reached oid) then begin
          Hashtbl.replace reached oid ();
          List.iter visit (Heap.strong_refs (Heap.get heap oid))
        end
      in
      List.iter
        (fun name ->
          match Store.Session.root (Store.default_session store) name with
          | Some (Pvalue.Ref oid) -> visit oid
          | _ -> ())
        (Store.Session.root_names (Store.default_session store));
      let live = Hashtbl.length reached in
      let weak_cleared =
        Hashtbl.fold
          (fun oid () n ->
            match Heap.get heap oid with
            | Heap.Weak { Heap.target = Pvalue.Ref t } when not (Hashtbl.mem reached t) -> n + 1
            | _ -> n)
          reached 0
      in
      let remembered = Array.make nshards Oid.Set.empty in
      Hashtbl.iter
        (fun oid () ->
          List.iter
            (fun target ->
              let k = Store.shard_of store target in
              if Hashtbl.mem reached target && k <> Store.shard_of store oid then
                remembered.(k) <- Oid.Set.add target remembered.(k))
            (Heap.strong_refs (Heap.get heap oid)))
        reached;
      let swept = Heap.size heap - live in
      check_int "the fixture clears one weak cell" 1 weak_cleared;
      check_bool "the fixture has garbage" true (swept > 10);
      Array.iteri
        (fun k r -> check_bool (sp "shard %d is referenced from another shard" k) true
            (not (Oid.Set.is_empty r)))
        remembered;
      let stats = Store.gc store in
      check_int "live" live stats.Gc.live;
      check_int "swept" swept stats.Gc.swept;
      check_int "weak cells cleared" weak_cleared stats.Gc.weak_cleared;
      List.iter
        (fun (info : Store.shard_info) ->
          check_int
            (sp "shard %d remembered set" info.Store.shard)
            (Oid.Set.cardinal remembered.(info.Store.shard))
            info.Store.remembered)
        (Store.shard_info store);
      Store.close store)

let suite =
  [
    test "torn append sweep: all-or-nothing across shards" torn_append_rolls_back_whole_stabilise;
    test "full compaction crash recovers last stabilise" full_compaction_crash_recovers_last_stabilise;
    test "partial compaction crash keeps the delta" partial_compaction_crash_keeps_the_delta;
    test "reopen appends to recovered journals without compacting" reopen_appends_without_compacting;
    test "one-shot fault under racing domains" fault_fires_once_across_domains;
    test "a hot shard compacts alone" hot_shard_compacts_alone;
    test "a crash after demotion quarantines lost targets"
      crash_after_demotion_quarantines_lost_targets;
    test "gc remembered sets match a heap walk" gc_remembered_sets_match_a_walk;
  ]
