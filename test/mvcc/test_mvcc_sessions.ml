(* Directed coverage of the handle-based MVCC session surface:
   snapshot stability, read-your-writes, first-committer-wins conflicts
   (typed, with clashing oids/keys), abort hygiene (no journal residue),
   conflict-retry, commit durability through the group-commit journal,
   and the session-gated whole-store operations. *)

open Pstore
open Mvcc_util

let sp = Printf.sprintf

let ival n = Pvalue.Int (Int32.of_int n)

let int_of = function
  | Pvalue.Int v -> Int32.to_int v
  | v -> Alcotest.failf "expected an int, got %s" (Pvalue.to_string v)

let session_fingerprint s = Image.encode (Store.Session.snapshot_contents s)

(* -- snapshot stability --------------------------------------------------- *)

let snapshot_reads_are_byte_stable () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 1; ival 2 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  Store.Session.set_root (Store.default_session store) "n" (ival 10);
  Store.Session.set_blob (Store.default_session store) "b" "before";
  let s = Store.open_session store in
  let fp0 = session_fingerprint s in
  let field0 = Store.Session.field s a 0 in
  (* another writer (the default session) moves the shared store on:
     overwrites, fresh allocations, root and blob churn *)
  Store.Session.set_field (Store.default_session store) a 0 (ival 99);
  Store.Session.set_root (Store.default_session store) "n" (ival 11);
  Store.Session.set_root (Store.default_session store) "fresh" (ival 12);
  Store.Session.set_blob (Store.default_session store) "b" "after";
  ignore (Store.Session.alloc_string (Store.default_session store) "noise");
  (* ... and a second session commits on top of that *)
  let w = Store.open_session store in
  Store.Session.set_root w "n" (ival 13);
  Store.Session.commit w;
  (* the pinned view is unmoved, byte for byte *)
  check_output "snapshot fingerprint is byte-stable" fp0 (session_fingerprint s);
  check_bool "field read is stable" true (Store.Session.field s a 0 = field0);
  check_int "root read is stable" 10 (int_of (Option.get (Store.Session.root s "n")));
  check_bool "root created after open is invisible" true
    (Store.Session.root s "fresh" = None);
  check_output "blob read is stable" "before" (Option.get (Store.Session.blob s "b"));
  (* while the live store sees everything *)
  check_int "live store moved on" 13 (int_of (Option.get (Store.Session.root (Store.default_session store) "n")));
  Store.Session.abort s;
  (* MVCC bookkeeping is torn down with the last session *)
  check_int "no sessions left" 0 (Store.open_session_count store)

let read_your_writes () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 1 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 42);
  Store.Session.set_root s "mine" (ival 7);
  let oid = Store.Session.alloc_record s "B" [| ival 5 |] in
  check_int "own field write visible" 42 (int_of (Store.Session.field s a 0));
  check_int "own root write visible" 7 (int_of (Option.get (Store.Session.root s "mine")));
  check_int "own allocation readable" 5 (int_of (Store.Session.field s oid 0));
  check_bool "own allocation is live in-session" true (Store.Session.is_live s oid);
  (* none of it visible outside before commit *)
  check_int "field invisible outside" 1 (int_of (Store.Session.field (Store.default_session store) a 0));
  check_bool "root invisible outside" true (Store.Session.root (Store.default_session store) "mine" = None);
  check_bool "allocation invisible outside" false (Store.Session.is_live (Store.default_session store) oid);
  Store.Session.commit s;
  check_int "field visible after commit" 42 (int_of (Store.Session.field (Store.default_session store) a 0));
  check_int "root visible after commit" 7 (int_of (Option.get (Store.Session.root (Store.default_session store) "mine")));
  check_int "allocation visible after commit" 5 (int_of (Store.Session.field (Store.default_session store) oid 0))

(* -- conflicts ------------------------------------------------------------ *)

let first_committer_wins_on_oids () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 0 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  Store.Session.set_field s1 a 0 (ival 1);
  Store.Session.set_field s2 a 0 (ival 2);
  Store.Session.commit s1;
  (match Store.Session.commit s2 with
  | () -> Alcotest.fail "second committer must lose"
  | exception Failure.Commit_conflict { session; oids; keys } ->
    check_int "loser is session 2" (Store.Session.id s2) session;
    check_bool "clash names the contested oid" true (oids = [ a ]);
    check_bool "no key clash" true (keys = []));
  check_int "first committer's write survives" 1 (int_of (Store.Session.field (Store.default_session store) a 0));
  check_bool "loser is aborted" true (Store.Session.state s2 = `Aborted);
  check_int "conflict counted" 1 (Obs.count (Store.obs store) Obs.Conflict);
  check_int "one session commit counted" 1
    (Obs.count (Store.obs store) Obs.Session_commit)

let conflicts_with_direct_writer () =
  let store = Store.create () in
  Store.Session.set_root (Store.default_session store) "k" (ival 0);
  let s = Store.open_session store in
  Store.Session.set_root s "k" (ival 1);
  (* a direct (default-session) write to the same key after the snapshot
     was pinned also makes the session lose *)
  Store.Session.set_root (Store.default_session store) "k" (ival 9);
  (match Store.Session.commit s with
  | () -> Alcotest.fail "session must lose to the direct writer"
  | exception Failure.Commit_conflict { oids; keys; _ } ->
    check_bool "clash names the contested key" true (keys = [ "k" ]);
    check_bool "no oid clash" true (oids = []));
  check_int "direct write survives" 9 (int_of (Option.get (Store.Session.root (Store.default_session store) "k")))

let disjoint_sessions_both_commit () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 0 |] in
  let b = Store.Session.alloc_record (Store.default_session store) "B" [| ival 0 |] in
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  Store.Session.set_field s1 a 0 (ival 1);
  Store.Session.set_root s1 "r1" (ival 1);
  Store.Session.set_field s2 b 0 (ival 2);
  Store.Session.set_root s2 "r2" (ival 2);
  Store.Session.commit s1;
  Store.Session.commit s2;
  check_int "s1's field landed" 1 (int_of (Store.Session.field (Store.default_session store) a 0));
  check_int "s2's field landed" 2 (int_of (Store.Session.field (Store.default_session store) b 0));
  check_int "no conflicts" 0 (Obs.count (Store.obs store) Obs.Conflict)

let conflict_retry_succeeds () =
  let store = Store.create () in
  Store.Session.set_root (Store.default_session store) "n" (ival 0);
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  (* both increment the same counter root *)
  let incr_in s =
    Store.Session.set_root s "n" (ival (int_of (Option.get (Store.Session.root s "n")) + 1))
  in
  incr_in s1;
  incr_in s2;
  Store.Session.commit s1;
  (match Store.Session.commit s2 with
  | () -> Alcotest.fail "stale increment must conflict"
  | exception Failure.Commit_conflict _ ->
    (* the canonical retry: a fresh session over the new state *)
    let s3 = Store.open_session store in
    incr_in s3;
    Store.Session.commit s3);
  check_int "both increments landed" 2 (int_of (Option.get (Store.Session.root (Store.default_session store) "n")))

(* -- abort hygiene -------------------------------------------------------- *)

let abort_leaves_no_journal_residue () =
  with_store_file @@ fun path ->
  let store = Store.create () in
  Store.configure store
    {
      (Store.config store) with
      Store.Config.backing = Some path;
    };
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 1 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  Store.stabilise store;
  let depth = (Store.stats store).Store.journal_depth in
  let pending = (Store.stats store).Store.pending_ops in
  let live = (Store.stats store).Store.live in
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 99);
  Store.Session.set_root s "junk" (ival 1);
  let reserved = Store.Session.alloc_string s "junk" in
  Store.Session.abort s;
  check_int "field write never landed" 1 (int_of (Store.Session.field (Store.default_session store) a 0));
  check_bool "root write never landed" true (Store.Session.root (Store.default_session store) "junk" = None);
  check_bool "buffered allocation never landed" false (Store.Session.is_live (Store.default_session store) reserved);
  check_int "live count unchanged" live (Store.stats store).Store.live;
  check_int "journal depth unchanged" depth (Store.stats store).Store.journal_depth;
  check_int "no pending ops from the abort" pending (Store.stats store).Store.pending_ops;
  (* the reserved oid is simply never used — the allocator is monotone,
     so no later allocation can collide with the aborted one *)
  let later = Store.Session.alloc_string (Store.default_session store) "later" in
  check_bool "reserved oids are not reused" true (later <> reserved);
  Store.stabilise store;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "reopened state never saw the aborted writes" fp (fingerprint reopened);
  check_int "reopened field is the pre-session value" 1 (int_of (Store.Session.field (Store.default_session reopened) a 0));
  check_bool "reopened store has no junk root" true (Store.Session.root (Store.default_session reopened) "junk" = None);
  Store.close reopened

let committed_session_survives_reopen () =
  with_store_file @@ fun path ->
  let store = Store.create () in
  Store.configure store
    {
      (Store.config store) with
      Store.Config.backing = Some path;
    };
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 1 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  Store.stabilise store;
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 5);
  let fresh = Store.Session.alloc_record s "B" [| ival 6 |] in
  Store.Session.set_root s "b" (Pvalue.Ref fresh);
  (* commit pays the barrier itself on a journalled backed store *)
  Store.Session.commit s;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "committed session replays through the journal" fp (fingerprint reopened);
  check_int "field survived" 5 (int_of (Store.Session.field (Store.default_session reopened) a 0));
  check_int "allocation survived" 6 (int_of (Store.Session.field (Store.default_session reopened) fresh 0));
  Store.close reopened

(* -- commit validation keeps the session alive ---------------------------- *)

let refused_commit_can_be_retried () =
  let store = Store.create () in
  let a = Store.Session.alloc_record (Store.default_session store) "A" [| ival 0 |] in
  Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 1);
  (* quarantining the target after buffering makes validation refuse the
     commit — before anything is published *)
  Store.quarantine_oid store a "induced";
  (match Store.Session.commit s with
  | () -> Alcotest.fail "commit into quarantine must be refused"
  | exception Quarantine.Quarantined _ -> ());
  check_bool "refused commit leaves the session live" true (Store.Session.is_open s);
  (* raw heap read: the store read path would (rightly) refuse the
     quarantined target *)
  check_int "nothing was published" 0 (int_of (Heap.field (Store.heap store) a 0));
  (* repair, then the SAME session commits *)
  Store.clear_quarantine store a;
  Store.Session.commit s;
  check_int "retried commit landed" 1 (int_of (Store.Session.field (Store.default_session store) a 0))

(* -- session-gated whole-store operations --------------------------------- *)

let gc_rollback_mark_dirty_are_gated () =
  let store = Store.create () in
  let s = Store.open_session store in
  let refuses f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "gc refuses" true (refuses (fun () -> Store.gc store));
  check_bool "with_rollback refuses" true
    (refuses (fun () -> Store.with_rollback store (fun () -> ())));
  check_bool "mark_dirty refuses" true (refuses (fun () -> Store.mark_dirty store));
  Store.Session.abort s;
  ignore (Store.gc store);
  Store.mark_dirty store;
  check_bool "all allowed again after the last session closes" true
    (Store.with_rollback store (fun () -> true) = Ok true)

let closed_sessions_refuse_use () =
  let store = Store.create () in
  let s = Store.open_session store in
  Store.Session.commit s;
  (match Store.Session.root s "x" with
  | _ -> Alcotest.fail "a committed session must refuse reads"
  | exception Invalid_argument _ -> ());
  (match Store.Session.commit s with
  | () -> Alcotest.fail "double commit must be refused"
  | exception Invalid_argument _ -> ());
  let t = Store.open_session store in
  Store.Session.abort t;
  match Store.Session.set_root t "x" (ival 1) with
  | () -> Alcotest.fail "an aborted session must refuse writes"
  | exception Invalid_argument _ -> ()

let default_session_is_direct () =
  let store = Store.create () in
  let d = Store.default_session store in
  check_int "default session is id 0" 0 (Store.Session.id d);
  check_bool "default session is not a snapshot" false (Store.Session.is_snapshot d);
  Store.Session.set_root d "x" (ival 1);
  check_int "default-session writes are immediate" 1
    (int_of (Option.get (Store.Session.root (Store.default_session store) "x")));
  check_int "nothing is buffered" 0 (Store.Session.buffered_ops d);
  (* commit on the default session is just the barrier — a no-op here *)
  Store.Session.commit d;
  check_bool "default session stays open" true (Store.Session.is_open d);
  match Store.Session.abort d with
  | () -> Alcotest.fail "the default session cannot abort"
  | exception Invalid_argument _ -> ()

(* -- session stats reflect the snapshot, not the buffer ------------------- *)

let session_stats_reflect_snapshot () =
  let store = Store.create () in
  ignore (Store.Session.alloc_string (Store.default_session store) "one");
  ignore (Store.Session.alloc_string (Store.default_session store) "two");
  let s = Store.open_session store in
  ignore (Store.Session.alloc_string s "buffered");
  ignore (Store.Session.alloc_string s "buffered too");
  check_int "buffered allocations do not count as live" 2
    (Store.Session.stats s).Store.live;
  check_int "buffered ops are reported separately" 2 (Store.Session.buffered_ops s);
  (* writers landing after the snapshot do not move the session's view *)
  ignore (Store.Session.alloc_string (Store.default_session store) "after");
  check_int "post-snapshot allocations are invisible" 2 (Store.Session.live_count s);
  check_int "the store itself sees them" 3 (Store.stats store).Store.live;
  Store.Session.commit s;
  check_int "commit publishes the buffered allocations" 5 (Store.stats store).Store.live

(* -- accessor parity: the default session and a snapshot session are one
   read surface ---------------------------------------------------------------- *)

let show_values vs = String.concat "; " (Array.to_list (Array.map Pvalue.to_string vs))

let show_entry = function
  | Heap.Record r -> sp "record %s [%s]" r.Heap.class_name (show_values r.Heap.fields)
  | Heap.Array a -> sp "array %s [%s]" a.Heap.elem_type (show_values a.Heap.elems)
  | Heap.Str s -> sp "string %S" s
  | Heap.Weak c -> sp "weak %s" (Pvalue.to_string c.Heap.target)

let show_result show = function
  | Ok v -> "ok " ^ show v
  | Error f -> "error " ^ Failure.describe f

(* Every read through one handle, each rendered to a comparable string. *)
let parity_readers h =
  let module R = Store.Session in
  [
    ("get", fun o _ -> show_entry (R.get h o));
    ("find", fun o _ -> Option.fold ~none:"none" ~some:show_entry (R.find h o));
    ("is_live", fun o _ -> string_of_bool (R.is_live h o));
    ("class_of", fun o _ -> R.class_of h o);
    ("get_record", fun o _ -> show_entry (Heap.Record (R.get_record h o)));
    ("get_array", fun o _ -> show_entry (Heap.Array (R.get_array h o)));
    ("get_string", fun o _ -> R.get_string h o);
    ("get_weak", fun o _ -> show_entry (Heap.Weak (R.get_weak h o)));
    ("field", fun o i -> Pvalue.to_string (R.field h o i));
    ("elem", fun o i -> Pvalue.to_string (R.elem h o i));
    ("array_length", fun o _ -> string_of_int (R.array_length h o));
    ("try_get", fun o _ -> show_result show_entry (R.try_get h o));
    ("try_field", fun o i -> show_result Pvalue.to_string (R.try_field h o i));
    ("string_value", fun o _ -> R.string_value h (Pvalue.Ref o));
  ]

(* The outcome of one read (value or exception) plus the Get/Set/Alloc
   counter deltas it caused. *)
let parity_outcome store read =
  let counts () = List.map (Obs.count (Store.obs store)) [ Obs.Get; Obs.Set; Obs.Alloc ] in
  let before = counts () in
  let shown = match read () with v -> v | exception e -> "raised " ^ Printexc.to_string e in
  (shown, List.map2 ( - ) (counts ()) before)

let accessor_parity () =
  let store = Store.create () in
  let str = Store.Session.alloc_string (Store.default_session store) "text" in
  let rc = Store.Session.alloc_record (Store.default_session store) "P" [| ival 1; Pvalue.Ref str |] in
  let arr = Store.Session.alloc_array (Store.default_session store) "int" [| ival 7; ival 8 |] in
  let weak = Store.Session.alloc_weak (Store.default_session store) (Pvalue.Ref rc) in
  let bad = Store.Session.alloc_record (Store.default_session store) "Q" [| ival 3 |] in
  Store.quarantine_oid store bad "induced";
  (* every typed reader also runs on every other kind: the wrong-kind
     path is exercised by each row below *)
  let cases =
    [
      ("record", rc, 1);
      ("array", arr, 1);
      ("string", str, 0);
      ("weak", weak, 0);
      ("wrong kind", arr, 0);
      ("out-of-range index", rc, 5);
      ("negative index", arr, -1);
      ("dangling oid", Oid.of_int 9999, 0);
      ("quarantined oid", bad, 0);
    ]
  in
  List.iter
    (fun (case, oid, idx) ->
      let s = Store.open_session store in
      let handles =
        [
          ("default session", parity_readers (Store.default_session store));
          ("snapshot session", parity_readers s);
        ]
      in
      let outcomes (how, readers) =
        List.map
          (fun (name, read) -> (how, name, parity_outcome store (fun () -> read oid idx)))
          readers
      in
      let reference = outcomes (List.hd handles) in
      List.iter
        (fun handle ->
          List.iter2
            (fun (_, name, (want, want_deltas)) (how, _, (got, deltas)) ->
              let label = sp "%s on %s (%s)" name case how in
              check_output label want got;
              Alcotest.(check (list int)) (label ^ ": get/set/alloc deltas") want_deltas deltas)
            reference (outcomes handle))
        (List.tl handles);
      Store.Session.abort s)
    cases

let with_session_commits_and_aborts () =
  let store = Store.create () in
  Store.Session.with_session store (fun s -> Store.Session.set_root s "ok" (ival 1));
  check_int "with_session commits on success" 1
    (int_of (Option.get (Store.Session.root (Store.default_session store) "ok")));
  (match Store.Session.with_session store (fun s ->
       Store.Session.set_root s "bad" (ival 2);
       failwith "boom")
   with
  | () -> Alcotest.fail "the exception must propagate"
  | exception Stdlib.Failure _ -> ());
  check_bool "with_session aborts on raise" true (Store.Session.root (Store.default_session store) "bad" = None);
  check_int "no sessions leak" 0 (Store.open_session_count store)

(* -- trimming the version chains -------------------------------------- *)

let chain_entries store = (Store.stats store).Store.chain_entries

(* What two alternating sessions need at most: the array's and their
   roots' last two epochs, each an entry and a stamp. *)
let chain_bound = 16

let churn_store () =
  let store = Store.create () in
  let arr = Store.Session.alloc_array (Store.default_session store) "[I" (Array.make 4096 (ival 0)) in
  Store.Session.set_root (Store.default_session store) "arr" (Pvalue.Ref arr);
  (store, arr)

(* Two sessions alternate for 2,000 rounds: each round a direct write
   sets element r of a 4,096-element array, then the older session
   commits a write to its own root and reopens, closing the oldest
   snapshot.  [each_round] sees the round, the session left open and
   the element written. *)
let alternating_churn store arr each_round =
  let sessions = [| Store.open_session store; Store.open_session store |] in
  for r = 1 to 2000 do
    Store.Session.set_elem (Store.default_session store) arr r (ival r);
    let k = r mod 2 in
    Store.Session.set_root sessions.(k) (sp "s%d" k) (ival r);
    Store.Session.commit sessions.(k);
    sessions.(k) <- Store.open_session store;
    each_round r sessions.(1 - k)
  done;
  sessions

let chains_trim_as_the_oldest_closes () =
  let store, arr = churn_store () in
  let sessions =
    alternating_churn store arr (fun r older ->
        (* the session left open opened before element r was written:
           the trim must keep the element's pre-image for it *)
        check_int (sp "round %d: the open session reads its snapshot" r) 0
          (int_of (Store.Session.elem older arr r));
        let held = chain_entries store in
        if held > chain_bound then
          Alcotest.failf "round %d: the MVCC tables hold %d entries; at most %d are readable" r
            held chain_bound)
  in
  Array.iter Store.Session.abort sessions;
  check_int "no session open, no entries" 0 (chain_entries store)

let a_pinned_snapshot_keeps_its_versions () =
  let store, arr = churn_store () in
  let pinned = Store.open_session store in
  let fp0 = session_fingerprint pinned in
  let sessions = alternating_churn store arr (fun _ _ -> ()) in
  check_bool "the chains grew while the snapshot was pinned" true
    (chain_entries store > 2000);
  check_output "the pinned snapshot is byte-identical" fp0 (session_fingerprint pinned);
  Store.Session.abort pinned;
  let held = chain_entries store in
  if held > chain_bound then
    Alcotest.failf "closing the pinned snapshot left %d entries; at most %d are readable" held
      chain_bound;
  Array.iter Store.Session.abort sessions;
  check_int "no session open, no entries" 0 (chain_entries store)

let suite =
  [
    test "snapshot reads are byte-stable under concurrent writers"
      snapshot_reads_are_byte_stable;
    test "a session reads its own buffered writes" read_your_writes;
    test "first committer wins on contested oids" first_committer_wins_on_oids;
    test "a direct writer also defeats a stale session" conflicts_with_direct_writer;
    test "disjoint write sets both commit" disjoint_sessions_both_commit;
    test "a conflicting increment succeeds on retry" conflict_retry_succeeds;
    test "abort leaves no journal residue" abort_leaves_no_journal_residue;
    test "a committed session survives close/reopen" committed_session_survives_reopen;
    test "a refused commit leaves the session live for retry"
      refused_commit_can_be_retried;
    test "gc / with_rollback / mark_dirty are session-gated"
      gc_rollback_mark_dirty_are_gated;
    test "closed sessions refuse further use" closed_sessions_refuse_use;
    test "the default session is direct" default_session_is_direct;
    test "session stats reflect the snapshot, not the dirty buffer"
      session_stats_reflect_snapshot;
    test "with_session commits on success and aborts on raise"
      with_session_commits_and_aborts;
    test "store, default session and snapshot session read alike" accessor_parity;
    test "chains are trimmed each time the oldest snapshot closes"
      chains_trim_as_the_oldest_closes;
    test "a pinned snapshot keeps its versions until it closes"
      a_pinned_snapshot_keeps_its_versions;
  ]

let _ = sp
