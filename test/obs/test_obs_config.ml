(* The unified Store.Config record — the only way to retune a live
   store: incremental single-knob updates compose, the record
   round-trips, and an explicit config is authoritative over recovery on
   open_file. *)

open Pstore
open Obs_util

let incremental_updates_compose () =
  (* three one-knob [{ config with ... }] updates land on the same state
     as one whole-record configure *)
  let stepwise = Store.create () in
  Store.configure stepwise { (Store.config stepwise) with Store.Config.compaction_limit = 128 };
  Store.configure stepwise { (Store.config stepwise) with Store.Config.retry = true };
  let unified = Store.create () in
  Store.configure unified
    {
      Store.Config.default with
      compaction_limit = 128;
      retry = true;
      backing = None;
      shards = 1;
    };
  check_bool "three one-knob updates equal one record" true
    (Store.config stepwise = Store.config unified)

let configure_config_is_identity () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      Store.configure store { (Store.config store) with Store.Config.retry = true };
      let before = Store.config store in
      Store.configure store before;
      check_bool "configure (config s) changes nothing" true
        (Store.config store = before);
      check_bool "backing round-trips" true
        (before.Store.Config.backing = Some path))

let default_config_leaves_backing_alone () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      Store.configure store Store.Config.default;
      check_bool "backing = None means keep, not clear" true
        (Store.backing store = Some path))

let open_file_config_wins_over_recovery () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.stabilise ~path store;
      let a = Store.Session.alloc_record (Store.default_session store) "A" [| Pvalue.Int 1l |] in
      Store.Session.set_root (Store.default_session store) "a" (Pvalue.Ref a);
      Store.stabilise store;
      Store.close store;
      (* an explicit config is applied after recovery: the journal still
         replays, and the config's compaction limit wins *)
      let overridden =
        Store.open_file ~config:{ Store.Config.default with compaction_limit = 7 } path
      in
      check_bool "the journal replayed" true
        ((Store.stats overridden).Store.journal_replayed > 0);
      check_bool "the journalled root is present" true
        (Store.Session.root (Store.default_session overridden) "a" = Some (Pvalue.Ref a));
      check_int "explicit config sets the compaction limit" 7
        (Store.config overridden).Store.Config.compaction_limit;
      Store.close overridden)

(* Group commit is gone: a group window other than 1 is refused on
   every path a config enters, naming the removal, and changes nothing. *)
let group_window_is_refused () =
  let window3 c = { c with Store.Config.group_window = 3 } in
  let refuses what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted group_window = 3" what
    | exception Invalid_argument msg ->
      check_bool (what ^ " names the removal") true (contains msg "group commit was removed")
  in
  refuses "create" (fun () -> Store.create ~config:(window3 Store.Config.default) ());
  let store = Store.create () in
  let before = Store.config store in
  refuses "configure" (fun () -> Store.configure store (window3 before));
  check_bool "configure left the config unchanged" true (Store.config store = before);
  with_store_file (fun path ->
      Store.configure store { before with Store.Config.backing = Some path };
      Store.Session.set_root (Store.default_session store) "r" (Pvalue.Int 1l);
      Store.stabilise store;
      Store.close store;
      refuses "open_file" (fun () ->
          Store.open_file ~config:(window3 Store.Config.default) path);
      let reopened = Store.open_file path in
      check_bool "the store on disk is untouched" true
        (Store.Session.root (Store.default_session reopened) "r" = Some (Pvalue.Int 1l));
      check_int "the reopened window is 1" 1 (Store.config reopened).Store.Config.group_window;
      Store.close reopened)

(* Tracing has one switch, [Obs.set_enabled]: no configuration turns it
   off or resizes the store's trace ring. *)
let configure_leaves_tracing_alone () =
  let store = Store.create () in
  let obs = Store.obs store in
  Obs.set_enabled obs true;
  Store.configure store Store.Config.default;
  check_bool "tracing survives a whole-record configure" true (Obs.enabled obs);
  for _ = 1 to Obs.default_ring_capacity + 10 do
    ignore (Store.Session.alloc_string (Store.default_session store) "x")
  done;
  check_int "the ring keeps its default capacity" Obs.default_ring_capacity
    (List.length (Obs.events obs))

(* A rejected record changes nothing: every field is checked before any
   is applied — here the bad breaker comes after two good knobs. *)
let rejected_configure_changes_nothing () =
  let store = Store.create () in
  let before = Store.config store in
  (match
     Store.configure store
       {
         before with
         Store.Config.compaction_limit = 7;
         retry = true;
         breaker = -1;
       }
   with
  | () -> Alcotest.fail "a negative breaker was accepted"
  | exception Invalid_argument _ -> ());
  check_bool "the config is unchanged" true (Store.config store = before)

(* open_file checks its config before it touches disk: a bad one on a
   path that does not exist is an argument error, not a missing file. *)
let open_file_checks_config_first () =
  with_store_file (fun path ->
      match Store.open_file ~config:{ Store.Config.default with breaker = -1 } path with
      | _ -> Alcotest.fail "a negative breaker was accepted"
      | exception Invalid_argument _ -> ())

let suite =
  [
    test "incremental one-knob updates compose" incremental_updates_compose;
    test "configure (config s) is the identity" configure_config_is_identity;
    test "the default config leaves backing alone" default_config_leaves_backing_alone;
    test "open_file applies an explicit config after recovery"
      open_file_config_wins_over_recovery;
    test "a group window other than 1 is refused everywhere" group_window_is_refused;
    test "a rejected configure changes nothing" rejected_configure_changes_nothing;
    test "open_file checks its config before touching disk" open_file_checks_config_first;
    test "configure leaves the tracing switch alone" configure_leaves_tracing_alone;
  ]
