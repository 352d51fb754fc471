(* Deterministic fault-domain behaviours.

   Each test drives one fault shape into a known gap of the sharded
   store's I/O protocol and pins the health-machine response:

   - an EINTR storm small enough for the retry budget is absorbed —
     nothing degrades, nothing is lost;
   - a storm that outlasts it fires once per stabilise attempt: the
     whole stabilise is the one retry boundary;
   - a storm that exhausts the budget trips the per-shard circuit
     breaker: exactly that shard goes degraded read-only while the
     other N-1 shards keep full service, and repair promotes it back;
   - an fsync failure mid group-commit aborts the whole multi-shard
     stabilise cleanly (journals back to their savepoints) and the
     retried stabilise commits everything;
   - a torn commit-marker tail recovers to the last committed
     stabilise, never half of one;
   - losing a whole shard's files takes only that shard offline;
     repair rebuilds what the journal still proves, quarantines the
     references that stayed dead, and converges to healthy;
   - a shard-targeted fault fires exactly once even when stabilise
     touches every shard, and never fires on another shard's I/O. *)

open Pstore
open Chaos_util

let nshards = 4

let make_store ?breaker ?retry dir =
  let path = Filename.concat dir "store.hpj" in
  (Store.create ~config:(chaos_config ~shards:nshards ?breaker ?retry path) (), path)

(* Root a chain of records: every shard ends up holding entries, roots,
   and cross-shard references (node i points at node i+1). *)
let populate ?(n = 32) store =
  let oids =
    Array.init n (fun i ->
        let oid =
          Store.Session.alloc_record (Store.default_session store) "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |]
        in
        Store.Session.set_root (Store.default_session store) (sp "r%d" i) (Pvalue.Ref oid);
        oid)
  in
  Array.iteri
    (fun i oid -> if i + 1 < n then Store.Session.set_field (Store.default_session store) oid 1 (Pvalue.Ref oids.(i + 1)))
    oids;
  oids

let shard_states store =
  List.map (fun (h : Store.shard_health) -> h.Store.h_state) (Store.health store)

(* -- retry absorption ------------------------------------------------------ *)

let eintr_storm_absorbed () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  Store.Session.set_root (Store.default_session store) (key_for ~count:nshards 1) (Pvalue.Int 7l);
  Faults.arm ~shard:1 (Faults.Intr_storm 2);
  Store.stabilise store;
  check_bool "storm consumed" true (Faults.armed () = None);
  check_bool "retries absorbed the storm" true ((Store.stats store).Store.io_retries >= 1);
  check_bool "no shard demoted" true (Store.healthy store);
  check_int "no degraded traffic" 0 (Store.stats store).Store.unhealthy_shards;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "absorbed faults leave no durable trace" fp (fingerprint reopened);
  Store.close reopened

(* The whole stabilise is the only retry boundary: a storm that
   outlasts it fires once per attempt (1 + 3 re-runs), and each re-run
   is counted once, on the store's own counter. *)
let storm_spends_one_budget () =
  with_dir @@ fun dir ->
  let store, _ = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  Store.Session.set_root (Store.default_session store) (key_for ~count:nshards 1) (Pvalue.Int 7l);
  let before = Faults.fired () in
  Faults.arm ~shard:1 (Faults.Intr_storm 1000);
  (match Store.stabilise store with
  | () -> Alcotest.fail "the storm should outlast the retry budget"
  | exception e -> check_bool "failure is transient-shaped" true (transient e));
  Faults.disarm ();
  check_int "one fire per attempt" 4 (Faults.fired () - before);
  check_int "three re-runs on the store's obs" 3 (Obs.count (Store.obs store) Obs.Retry);
  check_int "the same three in stats" 3 (Store.stats store).Store.io_retries;
  Store.close store

(* -- circuit breaker + degraded mode + repair ------------------------------ *)

let breaker_trips_and_repair_converges () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  let key1 = key_for ~count:nshards 1 in
  Store.Session.set_root (Store.default_session store) key1 (Pvalue.Int 41l);
  (* more fires than the whole retry budget (4 stabilise attempts):
     the budget exhausts and the breaker (threshold 2) trips on this
     shard alone *)
  Faults.arm ~shard:1 (Faults.Intr_storm 1000);
  (match Store.stabilise store with
  | () -> Alcotest.fail "stabilise should have exhausted its retries"
  | exception e -> check_bool "failure is transient-shaped" true (transient e));
  Faults.disarm ();
  check_bool "shard 1 tripped" false (Store.shard_healthy store 1);
  check_int "exactly one shard demoted" 1 (Store.stats store).Store.unhealthy_shards;
  List.iteri
    (fun k st ->
      match st with
      | Health.Degraded _ -> check_int "the degraded shard is shard 1" 1 k
      | Health.Healthy -> ()
      | Health.Offline _ -> Alcotest.fail "a breaker trip must degrade, not offline")
    (shard_states store);
  (* reads keep serving everywhere, including the demoted shard *)
  check_bool "degraded shard still reads" true (Store.Session.root (Store.default_session store) key1 = Some (Pvalue.Int 41l));
  (* writes to the demoted shard are refused with the typed failure... *)
  (match Store.Session.set_root (Store.default_session store) key1 (Pvalue.Int 42l) with
  | () -> Alcotest.fail "a degraded shard must refuse writes"
  | exception Failure.Shard_degraded { shard; state; _ } ->
    check_int "the failure names the shard" 1 shard;
    check_output "the failure names the state" "degraded" state);
  (* ...while the other shards keep full service *)
  for k = 0 to nshards - 1 do
    if k <> 1 then Store.Session.set_root (Store.default_session store) (key_for ~count:nshards k) (Pvalue.Int (Int32.of_int k))
  done;
  Store.stabilise store (* works around the demoted shard *);
  let h = List.nth (Store.health store) 1 in
  check_bool "failures were counted" true (h.Store.h_failures >= 2);
  check_int "one trip" 1 h.Store.h_trips;
  check_bool "degraded reads counted" true (h.Store.h_degraded_reads >= 1);
  check_bool "refused writes counted" true (h.Store.h_refused_writes >= 1);
  (* repair: the shard's memory was never lost, so promotion + a durable
     rewrite bring everything back *)
  (match Store.repair store 1 with
  | None -> Alcotest.fail "an unhealthy shard must produce a repair report"
  | Some r ->
    check_int "report names the shard" 1 r.Store.r_shard;
    (match r.Store.r_was with
    | Health.Degraded _ -> ()
    | _ -> Alcotest.fail "repaired out of the degraded state");
    check_bool "repair time measured" true (r.Store.r_ms >= 0.));
  check_bool "store healthy again" true (Store.healthy store);
  check_int "repair counted" 1 (List.nth (Store.health store) 1).Store.h_repairs;
  Store.Session.set_root (Store.default_session store) key1 (Pvalue.Int 42l) (* writes accepted again *);
  Store.stabilise store;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "the buffered mutation landed durably" fp (fingerprint reopened);
  check_bool "reopen is healthy" true (Store.healthy reopened);
  Integrity.check_exn reopened;
  Store.close reopened

let repair_on_healthy_store_is_a_noop () =
  with_dir @@ fun dir ->
  let store, _ = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  check_bool "repair of a healthy shard returns None" true (Store.repair store 0 = None);
  check_bool "repair_all finds nothing" true (Store.repair_all store = []);
  Store.close store

(* -- fsync failure mid group-commit ---------------------------------------- *)

let fsync_failure_mid_group_commit () =
  with_dir @@ fun dir ->
  let store, path = make_store ~retry:false dir in
  ignore (populate store);
  Store.stabilise store;
  (* dirty three shards so the stabilise is a real multi-shard group
     commit, then fail shard 2's journal fsync with no retry to absorb
     it: the whole batch must abort cleanly *)
  for k = 0 to 2 do
    Store.Session.set_root (Store.default_session store) (key_for ~count:nshards k) (Pvalue.Int (Int32.of_int (100 + k)))
  done;
  Faults.arm ~shard:2 Faults.Fsync_fails;
  (match Store.stabilise store with
  | () -> Alcotest.fail "the torn group commit should have failed"
  | exception Faults.Fault_injected _ -> ());
  (* nothing was half-committed: the retried stabilise lands everything *)
  Store.stabilise store;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "all three writes committed atomically" fp (fingerprint reopened);
  for k = 0 to 2 do
    check_bool (sp "root of shard %d present" k) true
      (Store.Session.root (Store.default_session reopened) (key_for ~count:nshards k) = Some (Pvalue.Int (Int32.of_int (100 + k))))
  done;
  Integrity.check_exn reopened;
  Store.close reopened

(* -- torn commit marker ----------------------------------------------------- *)

let torn_marker_recovers_committed_state () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  let fp_committed = fingerprint store in
  (* a second stabilise whose marker record we will tear off *)
  for k = 0 to nshards - 1 do
    Store.Session.set_root (Store.default_session store) (key_for ~tag:"t" ~count:nshards k) (Pvalue.Int (Int32.of_int k))
  done;
  Store.stabilise store;
  Store.close store;
  let m = Manifest.load path in
  let marker = Manifest.marker_path path m.Manifest.marker_epoch in
  let data = read_file marker in
  write_file marker (String.sub data 0 (String.length data - 4));
  let reopened = Store.open_file path in
  check_output "recovery lands on the last committed stabilise" fp_committed
    (fingerprint reopened);
  check_bool "a torn marker is recovery, not a health event" true (Store.healthy reopened);
  Integrity.check_exn reopened;
  Store.close reopened

(* -- whole-shard file loss -------------------------------------------------- *)

let victim_of store oids = Store.shard_of store oids.(0)

let shard_files path k =
  let m = Manifest.load path in
  let e = m.Manifest.epochs.(k) in
  (Manifest.shard_image path k e, Manifest.shard_wal path k e)

let whole_shard_loss_offline_then_repair () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  let oids = populate store in
  Store.stabilise store;
  let victim = victim_of store oids in
  let vkey = key_for ~count:nshards victim in
  Store.close store;
  let image, wal = shard_files path victim in
  Sys.remove image;
  if Sys.file_exists wal then Sys.remove wal;
  let store = Store.open_file path in
  check_bool "the lost shard is offline" false (Store.shard_healthy store victim);
  check_int "only the lost shard is unhealthy" 1 (Store.stats store).Store.unhealthy_shards;
  (match List.nth (shard_states store) victim with
  | Health.Offline _ -> ()
  | _ -> Alcotest.fail "file loss must mark the shard offline, not merely degraded");
  (* N-1 shards keep full service *)
  for k = 0 to nshards - 1 do
    if k <> victim then
      Store.Session.set_root (Store.default_session store) (key_for ~tag:"post" ~count:nshards k) (Pvalue.Int (Int32.of_int k))
  done;
  Store.stabilise store;
  (match Store.Session.set_root (Store.default_session store) vkey (Pvalue.Int 1l) with
  | () -> Alcotest.fail "an offline shard must refuse writes"
  | exception Failure.Shard_degraded { state; _ } ->
    check_output "the refusal names the offline state" "offline" state);
  (* repair: nothing of the shard survives on disk, so its entries stay
     dead — but every surviving reference to them is quarantined and the
     store converges back to healthy *)
  (match Store.repair store victim with
  | None -> Alcotest.fail "an offline shard must produce a repair report"
  | Some r ->
    (match r.Store.r_was with
    | Health.Offline _ -> ()
    | _ -> Alcotest.fail "repaired out of the offline state");
    check_int "nothing restorable from deleted files" 0 r.Store.r_restored;
    check_bool "the chain references into the lost shard were quarantined" true
      (r.Store.r_lost > 0);
    check_int "quarantine holds exactly the lost references" r.Store.r_lost
      (Store.stats store).Store.quarantined);
  check_bool "store healthy after repair" true (Store.healthy store);
  Store.Session.set_root (Store.default_session store) vkey (Pvalue.Int 2l) (* the shard accepts writes again *);
  Store.stabilise store;
  Integrity.check_exn store (* lost refs are quarantined: non-fatal *);
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_bool "reopen after repair is healthy" true (Store.healthy reopened);
  check_output "the repaired state is durable" fp (fingerprint reopened);
  Integrity.check_exn reopened;
  Store.close reopened

let lost_image_journal_replays_recent_ops () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  let oids = populate store in
  Store.stabilise store;
  let victim = victim_of store oids in
  (* post-compaction mutations: these live only in the victim's journal,
     which survives the image loss *)
  let vkey = key_for ~tag:"fresh" ~count:nshards victim in
  Store.Session.set_root (Store.default_session store) vkey (Pvalue.Int 77l);
  Store.stabilise store;
  Store.close store;
  let image, _wal = shard_files path victim in
  Sys.remove image;
  let store = Store.open_file path in
  check_bool "image loss takes the shard offline" false (Store.shard_healthy store victim);
  (match Store.repair store victim with
  | None -> Alcotest.fail "repair must run"
  | Some r -> check_bool "the surviving journal was replayed" true (r.Store.r_replayed > 0));
  check_bool "store healthy after repair" true (Store.healthy store);
  check_bool "the journal-only root came back" true
    (Store.Session.root (Store.default_session store) vkey = Some (Pvalue.Int 77l));
  Store.stabilise store;
  Integrity.check_exn store;
  Store.close store

let restored_image_repairs_with_zero_loss () =
  with_dir @@ fun dir ->
  let store, path = make_store dir in
  let oids = populate store in
  Store.stabilise store;
  let victim = victim_of store oids in
  let fp = fingerprint store in
  Store.close store;
  let image, _wal = shard_files path victim in
  let aside = image ^ ".aside" in
  Sys.rename image aside;
  let store = Store.open_file path in
  check_bool "the shard is offline while its image is missing" false
    (Store.shard_healthy store victim);
  (* the operator restores the file from backup, then repairs *)
  Sys.rename aside image;
  (match Store.repair store victim with
  | None -> Alcotest.fail "repair must run"
  | Some r ->
    check_bool "entries were restored from the image" true (r.Store.r_restored > 0);
    check_int "nothing was lost" 0 r.Store.r_lost);
  check_bool "store healthy after repair" true (Store.healthy store);
  check_output "repair recovered the exact pre-loss state" fp (fingerprint store);
  Integrity.check_exn store;
  Store.close store

(* -- crash / close idempotency mid multi-shard commit ----------------------- *)

let crash_then_close_idempotent () =
  (* tear the append protocol at assorted byte offsets — inside a
     shard's batch, between shards, inside the marker — then crash, and
     every further crash/close must be a quiet no-op *)
  List.iter
    (fun kill_byte ->
      with_dir @@ fun dir ->
      let store, path = make_store ~retry:false dir in
      ignore (populate store);
      Store.stabilise store;
      let fp_committed = fingerprint store in
      for k = 0 to nshards - 1 do
        Store.Session.set_root (Store.default_session store) (key_for ~tag:"c" ~count:nshards k) (Pvalue.Int 5l)
      done;
      Faults.arm (Faults.Fail_after_bytes kill_byte);
      (* on failure the append path truncates every journal and the
         marker back to their savepoints, so disk holds exactly the
         previous commit; on success (budget past the whole commit) it
         holds the new one — never anything in between *)
      let expected =
        match Store.stabilise store with
        | () ->
          Faults.disarm ();
          fingerprint store
        | exception Faults.Fault_injected _ -> fp_committed
      in
      Store.crash store;
      Store.close store (* must not raise on torn handles *);
      Store.crash store (* and stays idempotent *);
      Store.close store;
      let reopened = Store.open_file path in
      check_output
        (sp "byte %d: recovery lands on a whole stabilise" kill_byte)
        expected (fingerprint reopened);
      check_bool (sp "byte %d: reopen healthy" kill_byte) true (Store.healthy reopened);
      Integrity.check_exn reopened;
      Store.close reopened)
    [ 8; 64; 200; 420; 4096 ]

(* -- per-shard targeting --------------------------------------------------- *)

let targeted_fault_fires_exactly_once () =
  with_dir @@ fun dir ->
  let store, _ = make_store ~retry:false dir in
  ignore (populate store);
  Store.stabilise store;
  (* dirty every shard so stabilise syncs all four journals while one
     one-shot fault is armed *)
  for k = 0 to nshards - 1 do
    Store.Session.set_root (Store.default_session store) (key_for ~tag:"p" ~count:nshards k) (Pvalue.Int 9l)
  done;
  let before = Faults.fired () in
  Faults.arm ~shard:2 Faults.Fsync_fails;
  (match Store.stabilise store with
  | () -> Alcotest.fail "the targeted fsync failure should surface"
  | exception Faults.Fault_injected _ -> ());
  check_int "exactly one fire across all domains" 1 (Faults.fired () - before);
  check_bool "the injector disarmed itself" true (Faults.armed () = None);
  List.iteri
    (fun k (h : Store.shard_health) ->
      check_int
        (sp "only the targeted shard counted a failure (shard %d)" k)
        (if k = 2 then 1 else 0)
        h.Store.h_failures)
    (Store.health store);
  Store.stabilise store (* clean second attempt commits everything *);
  Store.close store

let out_of_scope_fault_never_fires () =
  with_dir @@ fun dir ->
  let store, _ = make_store dir in
  ignore (populate store);
  Store.stabilise store;
  (* target a shard, then touch only a different one: the armed fault
     must not fire and must not consume budget on foreign I/O *)
  Faults.arm ~shard:3 Faults.Fsync_fails;
  let before = Faults.fired () in
  Store.Session.set_root (Store.default_session store) (key_for ~count:nshards 0) (Pvalue.Int 11l);
  Store.stabilise store;
  ignore (Store.scrub ~budget:64 store);
  check_int "no fire on out-of-scope I/O" 0 (Faults.fired () - before);
  check_bool "the fault is still armed for its own shard" true (Faults.armed () <> None);
  Faults.disarm ();
  Store.close store

let suite =
  [
    test "an absorbable EINTR storm degrades nothing" eintr_storm_absorbed;
    test "an outlasting storm spends one budget of 4 attempts" storm_spends_one_budget;
    test "an exhausting storm trips one breaker; repair converges"
      breaker_trips_and_repair_converges;
    test "repair on a healthy store is a no-op" repair_on_healthy_store_is_a_noop;
    test "an fsync failure aborts the group commit cleanly" fsync_failure_mid_group_commit;
    test "a torn commit marker recovers the committed state"
      torn_marker_recovers_committed_state;
    test "whole-shard file loss: offline, then repair converges"
      whole_shard_loss_offline_then_repair;
    test "a lost image still replays its surviving journal"
      lost_image_journal_replays_recent_ops;
    test "a restored image repairs with zero loss" restored_image_repairs_with_zero_loss;
    test "crash then close stays idempotent mid-commit" crash_then_close_idempotent;
    test "a targeted fault fires exactly once across domains"
      targeted_fault_fires_exactly_once;
    test "a targeted fault never fires out of scope" out_of_scope_fault_never_fires;
  ]
