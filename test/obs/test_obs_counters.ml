(* Operation counters: always on, monotonic, and with the close/crash
   protocol — close seals a final snapshot, crash drops in-flight trace
   state, and a reopened store starts with fresh metrics. *)

open Pstore
open Obs_util

let counters_count_operations () =
  let store = Store.create () in
  let obs = Store.obs store in
  check_int "fresh store has served nothing" 0 (Obs.total obs);
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| Pvalue.Int 1l |] in
  check_int "alloc counted" 1 (Obs.count obs Obs.Alloc);
  ignore (Store.Session.get (Store.default_session store) a);
  ignore (Store.Session.field (Store.default_session store) a 0);
  check_int "reads counted" 2 (Obs.count obs Obs.Get);
  Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Int 2l);
  check_int "write counted" 1 (Obs.count obs Obs.Set);
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  ignore (Store.Session.root (Store.default_session store) "a");
  check_int "root lookup counted" 1 (Obs.count obs Obs.Root_lookup);
  (* counts lists nonzero classes only, in declaration order *)
  let names = List.map (fun (op, _) -> Obs.op_name op) (Obs.counts obs) in
  check_bool "set before alloc in op order" true
    (names = [ "get"; "set"; "alloc"; "root-lookup" ])

let quarantine_hits_are_counted () =
  let store = Store.create () in
  let a = Store.Session.alloc_string (Store.default_session store) "x" in
  Store.quarantine_oid store a "bit rot (test)";
  (try ignore (Store.Session.get (Store.default_session store) a) with Quarantine.Quarantined _ -> ());
  (match Store.Session.try_get (Store.default_session store) a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "quarantined read must fail");
  check_int "both refusals counted" 2 (Obs.count (Store.obs store) Obs.Quarantine_hit)

let monotonic_across_stabilise_and_reopen () =
  with_store_file (fun path ->
      let store = Store.create () in
      let a = Store.Session.alloc_record (Store.default_session store) "A" [| Pvalue.Int 1l |] in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
      let before = Obs.total (Store.obs store) in
      Store.stabilise ~path store;
      check_bool "stabilise only increases the totals" true
        (Obs.total (Store.obs store) > before);
      let obs = Store.obs store in
      check_int "stabilise counted" 1 (Obs.count obs Obs.Stabilise);
      check_bool "first stabilise compacts" true (Obs.count obs Obs.Compaction >= 1);
      check_bool "compaction saves an image" true (Obs.count obs Obs.Image_save >= 1);
      Store.Session.set_field (Store.default_session store) a 0 (Pvalue.Int 2l);
      Store.stabilise store;
      check_bool "delta rides the journal" true (Obs.count obs Obs.Journal_append >= 1);
      (* close seals the final snapshot... *)
      Store.close store;
      (match Obs.final_snapshot obs with
      | Some snap ->
        check_int "snapshot freezes the totals" (Obs.total obs) snap.Obs.at_total;
        check_bool "snapshot keeps the counts" true (snap.Obs.final_counts = Obs.counts obs)
      | None -> Alcotest.fail "close must seal a snapshot");
      (* ...and reopening builds fresh metrics: only the recovery work *)
      let reopened = Store.open_file path in
      let robs = Store.obs reopened in
      check_bool "reopened store is not carrying old counters" true
        (Obs.total robs < Obs.total obs);
      check_bool "recovery counted its image load" true (Obs.count robs Obs.Image_load >= 1);
      check_bool "no snapshot yet on the reopened store" true (Obs.final_snapshot robs = None);
      Store.close reopened)

let close_flushes_and_crash_drops () =
  let store = Store.create () in
  let obs = Store.obs store in
  Obs.set_enabled obs true;
  ignore (Store.Session.alloc_string (Store.default_session store) "x");
  check_bool "span captured while tracing" true (Obs.events obs <> []);
  Store.crash store;
  check_int "crash drops the ring" 0 (List.length (Obs.events obs));
  check_bool "crash does not snapshot" true (Obs.final_snapshot obs = None);
  check_bool "crash stops tracing" true (not (Obs.enabled obs));
  check_bool "counters survive for forensics" true (Obs.total obs > 0);
  (* close after crash is safe and seals the snapshot *)
  Store.close store;
  (match Obs.final_snapshot obs with
  | Some snap -> check_int "sealed totals" (Obs.total obs) snap.Obs.at_total
  | None -> Alcotest.fail "close must seal");
  (* flush is idempotent *)
  let t1 = Obs.final_snapshot obs in
  Store.close store;
  check_bool "second close is harmless" true (Obs.final_snapshot obs = t1)

let suite =
  [
    test "every operation class is counted" counters_count_operations;
    test "quarantine refusals are counted" quarantine_hits_are_counted;
    test "counters are monotonic across stabilise and reopen"
      monotonic_across_stabilise_and_reopen;
    test "close flushes, crash drops" close_flushes_and_crash_drops;
  ]
