(* Crash semantics of the journal's batch records.

   A journalled stabilise coalesces its whole multi-op delta into ONE
   batch record (journal tag 7) and fsyncs it before returning.  The
   contract under crash is ATOMICITY: a crash mid-batch tears the batch
   as a unit.  Recovery lands exactly on a stabilise-boundary state —
   never on a prefix of a delta's mutations, which the old
   one-record-per-op journal permitted. *)

open Pstore
open Crash_util

let sp = Printf.sprintf

let image dir = Filename.concat dir "store.img"

let store_config ?(shards = 1) ?(compaction_limit = Store.Config.default.compaction_limit) dir =
  { Store.Config.default with Store.Config.shards; compaction_limit; backing = Some (image dir) }

let make_store ?shards dir = Store.create ~config:(store_config ?shards dir) ()

(* One multi-op delta: alloc + root + field write + blob write, so every
   stabilise carries a batch of at least four journal ops. *)
let mutate store i =
  let oid =
    Store.Session.alloc_record (Store.default_session store) "G" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |]
  in
  Store.Session.set_root (Store.default_session store) (sp "g%d" i) (Pvalue.Ref oid);
  Store.Session.set_field (Store.default_session store) oid 1 (Pvalue.Int (Int32.of_int (i * 7)));
  Store.Session.set_blob (Store.default_session store) (sp "gb%d" i) (sp "payload-%d" i)

(* -- atomicity under every possible torn write ---------------------------- *)

(* File surgery: truncate the journal at EVERY byte length inside the
   batch record.  Each cut must recover the pre-batch state exactly —
   a torn batch never replays a prefix of its ops. *)
let torn_batch_recovers_pre_batch_state () =
  with_dir (fun dir ->
      let store = make_store dir in
      mutate store 0;
      Store.stabilise store (* full image: the recovery baseline *);
      let fp_base = fingerprint store in
      let wal = image dir ^ ".wal" in
      let pre_size = file_size wal in
      for i = 1 to 3 do
        mutate store (100 + i)
      done;
      Store.stabilise store (* ONE batch record carrying 12 ops *);
      let fp_post = fingerprint store in
      Store.close store;
      let full_size = file_size wal in
      check_bool "the batch added journal bytes" true (full_size > pre_size);
      (* cut inside the record: every prefix must be rejected whole *)
      let cuts = ref 0 in
      for cut = pre_size to full_size - 1 do
        with_dir (fun scratch ->
            copy_dir dir (Filename.concat scratch "copy");
            let dir = Filename.concat scratch "copy" in
            Unix.truncate (image dir ^ ".wal") cut;
            let reopened = Store.open_file (image dir) in
            let fp = fingerprint reopened in
            if not (String.equal fp fp_base) then
              Alcotest.failf "cut at byte %d recovered neither pre- nor batch state" cut;
            incr cuts;
            Integrity.check_exn reopened;
            Store.close reopened)
      done;
      check_bool "exercised many torn positions" true (!cuts > 50);
      (* and the untouched journal replays the whole batch *)
      let reopened = Store.open_file (image dir) in
      check_output "full journal recovers the post-batch state" fp_post
        (fingerprint reopened);
      Store.close reopened)

(* -- fault-injected crash mid-stabilise ------------------------------------ *)

let pick_fault seed =
  match seed mod 4 with
  | 0 -> Faults.Short_write (seed mod 13)
  | 1 -> Faults.Fail_after_bytes (1 + (seed mod 97))
  | 2 -> Faults.Fsync_fails
  | _ -> Faults.Rename_fails

(* Crash one seed-chosen way during a stabilise carrying a multi-op
   delta: the reopened store holds the pre-batch state or the complete
   post-batch state — nothing in between. *)
let crash_mid_batch seed =
  with_dir (fun dir ->
      let store = make_store dir in
      mutate store 0;
      Store.stabilise store;
      let fp_base = fingerprint store in
      for i = 1 to 3 do
        mutate store (10 * i)
      done;
      let fp_post = fingerprint store in
      (match
         Faults.with_fault (pick_fault seed) (fun () -> Store.stabilise store)
       with
      | Ok () -> () (* the fault point was not on this stabilise's path *)
      | Error (Faults.Fault_injected _) -> ()
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file (image dir) in
      let fp = fingerprint reopened in
      check_bool (sp "seed %d: all-or-nothing" seed) true
        (String.equal fp fp_base || String.equal fp fp_post);
      Integrity.check_exn reopened;
      Store.close reopened)

let crash_matrix () =
  for seed = 0 to 23 do
    crash_mid_batch seed
  done

(* -- a returned stabilise is durable ---------------------------------------- *)

(* Crash right after each of several stabilises, on one shard and on
   four: every reopen recovers exactly the state that stabilise
   returned on.  [step] makes the change and the stabilise. *)
let crash_after_each ?compaction_limit ~shards step =
  with_dir (fun dir ->
      let config = store_config ?compaction_limit ~shards dir in
      let store = ref (Store.create ~config ()) in
      mutate !store 0;
      Store.stabilise !store;
      for i = 1 to 4 do
        step !store i;
        let fp = fingerprint !store in
        Store.crash !store;
        store := Store.open_file ~config (image dir);
        check_output (sp "%d shards: step %d survives the crash" shards i) fp (fingerprint !store)
      done;
      Store.close !store)

let returned_stabilise_survives_crash () =
  List.iter
    (fun shards ->
      crash_after_each ~shards (fun store i ->
          mutate store i;
          Store.stabilise store))
    [ 1; 4 ]

let returned_session_commit_survives_crash () =
  List.iter
    (fun shards ->
      crash_after_each ~shards (fun store i ->
          let s = Store.open_session store in
          Store.Session.set_root s (sp "s%d" i) (Pvalue.Int (Int32.of_int i));
          Store.Session.set_blob s (sp "sb%d" i) (sp "session-%d" i);
          Store.Session.commit s))
    [ 1; 4 ]

(* With a compaction limit of 1 every stabilise compacts: fully on one
   shard, and on four only the shards over their slice, after the
   delta of the others went to their journals.  A crash right after
   either recovers what it returned on. *)
let returned_compaction_survives_crash () =
  List.iter
    (fun shards ->
      let compactions = ref 0 in
      crash_after_each ~compaction_limit:1 ~shards (fun store i ->
          mutate store i;
          let before = (Store.stats store).Store.compactions in
          Store.stabilise store;
          compactions := !compactions + (Store.stats store).Store.compactions - before);
      check_int (sp "%d shards: every stabilise compacted" shards) 4 !compactions)
    [ 1; 4 ]

(* A stabilise whose fsync failed keeps its delta buffered: the next
   stabilise that returns makes both deltas durable. *)
let stabilise_after_a_failed_one_survives_crash () =
  List.iter
    (fun shards ->
      with_dir (fun dir ->
          let store = make_store ~shards dir in
          mutate store 0;
          Store.stabilise store;
          mutate store 1;
          (match Faults.with_fault Faults.Fsync_fails (fun () -> Store.stabilise store) with
          | Error (Faults.Fault_injected _) -> ()
          | Ok () -> Alcotest.failf "%d shards: the fsync fault never fired" shards
          | Error e -> raise e);
          mutate store 2;
          Store.stabilise store;
          let fp = fingerprint store in
          Store.crash store;
          let reopened = Store.open_file (image dir) in
          check_output (sp "%d shards: the later stabilise survives the crash" shards) fp
            (fingerprint reopened);
          Integrity.check_exn reopened;
          Store.close reopened))
    [ 1; 4 ]

let suite =
  [
    test "a torn batch recovers the pre-batch state at every cut"
      torn_batch_recovers_pre_batch_state;
    test "crash mid-batch is all-or-nothing" crash_matrix;
    test "a stabilise that returned survives a crash" returned_stabilise_survives_crash;
    test "a session commit that returned survives a crash" returned_session_commit_survives_crash;
    test "a compacting stabilise that returned survives a crash" returned_compaction_survives_crash;
    test "a stabilise after a failed one survives a crash"
      stabilise_after_a_failed_one_survives_crash;
  ]
