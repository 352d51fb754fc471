(* The store facade: a heap, named roots, and a blob table, with
   stabilisation to a backing file.  This plays the role PJama plays in the
   paper: the environment in which programs are composed, stored and
   executed.

   The store is also where higher layers register "pins": transient strong
   roots contributed by a running VM (static fields, stack frames) that the
   garbage collector must honour even though they are not named roots.

   Every backed store journals: the image is paired with a write-ahead
   journal, mutations made through this module are buffered as journal
   ops, stabilise appends and fsyncs just the delta, and the image is
   rewritten only at compaction points (first stabilise, journal over the
   compaction limit, or after operations the journal cannot express — a
   GC sweep, or direct heap surgery flagged via [mark_dirty]).  While the
   store owes a full compaction ([needs_full]: unbacked, never
   stabilised, or after such an operation) nothing is buffered, because
   that compaction writes the heap itself.

   The object space is partitioned into N shards (N fixed at creation).
   Each shard owns an oid-hash slice of the objects plus the key-hashed
   roots and blobs, and carries its own image file, journal, quarantine
   set, checksum table, scrub cursor and health counters.  Shard passes
   (open, stabilise, compaction, scrub) visit the shards in turn, in one
   plain loop on the calling thread.  One code path serves
   every N; N = 1, the default, is its one-shard case.  [Manifest] makes
   the three decisions that depend on N:
   - file names: one shard keeps its image at [path] and its journal at
     [Journal.path_for path], with no epoch suffix and no manifest file;
     several shards name epoch files behind a manifest at [path];
   - the commit point of a compaction: the image rename for one shard,
     the manifest rename for several;
   - whether a commit marker gates journal replay: only with more than
     one journal.
   Demoting a shard needs a neighbour that keeps serving
   ([has_neighbour]), so a one-shard store never demotes: its I/O
   failures surface from the whole stabilise, and an unreadable image
   fails the open.

   Multi-shard crash atomicity: every stabilise gets a
   store-level sequence number; the delta lands as one seq-stamped batch
   record per dirty shard, and the sequence number is committed by
   appending it to the store's commit-marker file only after every dirty
   shard journal has been fsynced.  Recovery replays, per shard, exactly
   the batches whose sequence number the marker shows committed — so a
   crash between per-shard writes rolls the whole stabilise back, never
   half of it.

   The store has one data surface: every read and write of objects,
   roots and blobs is a [Session] operation on a handle, a snapshot
   session or the default session the store holds, and is defined once
   for both.  Whole-store rollback
   ([with_rollback]) restores an in-memory image taken at entry and, if
   the body stabilised, forces one full compaction — the same path on
   every layout.

   Every operation is counted through the store's [Obs.t].  Counting is a
   single array increment; latency timing and trace events only happen
   when tracing is enabled, so the hot accessors below branch on
   [Obs.enabled] explicitly rather than paying a closure on the untraced
   path. *)

(* Vestigial: every store journals.  [Config.durability] still names
   this type, and [configure] ignores it. *)
type durability = Journalled

(* Per-shard state.  Shard I/O counts into the store's single [obs]. *)
type shard = {
  sq : Quarantine.t; (* corrupt objects, isolated not fatal *)
  scrcs : int32 Oid.Table.t; (* per-object checksums, primed by the scrubber *)
  sscrub : Scrub.state;
  shealth : Health.t; (* fault-domain state machine *)
  mutable swal : Journal.t option;
  mutable spending : Journal.op list; (* newest first *)
  mutable spending_count : int;
  mutable sepoch : int; (* current on-disk image epoch of this shard *)
  mutable sdirty : bool; (* journal has appended bytes not yet fsynced *)
  mutable sneeds_full : bool; (* this shard's journal can't express its state *)
  mutable sremembered : Oid.Set.t; (* live oids here referenced from other shards *)
}

type t = {
  (* replaced only by [open_file], which adopts a loaded shard's tables *)
  mutable heap : Heap.t;
  mutable roots : Roots.t;
  mutable blobs : (string, string) Hashtbl.t;
  shards : shard array; (* length >= 1, fixed at creation *)
  obs : Obs.t;
  mutable marker : Manifest.Marker.t option; (* multi-shard commit marker *)
  mutable marker_epoch : int; (* current marker file index; -1 = none yet *)
  mutable seq : int; (* store-level stabilise sequence number *)
  mutable committed : int; (* highest seq durably recorded in the marker *)
  mutable retry : bool; (* re-run a transiently failed stabilise, opt-in *)
  mutable breaker : int; (* consecutive failed attempts before demotion; 0 = off *)
  mutable unhealthy : int; (* shards currently not Healthy (hot-path gate) *)
  mutable backing : string option;
  mutable pins : (unit -> Oid.t list) list;
  mutable stabilise_count : int;
  mutable gc_count : int;
  mutable needs_full : bool; (* journal can't express state since last image *)
  mutable compaction_limit : int;
  mutable scrub_next : int; (* first shard to get a share of a scrub budget's remainder *)
  mutable compactions : int;
  mutable replayed : int;
  mutable recovered_torn : bool;
  mvcc : mvcc; (* snapshot-session versioning state *)
  direct : session; (* the default session: reads and writes the shared state directly *)
}

(* MVCC snapshot-session state.  Populated only while snapshot sessions
   are open: version chains preserve pre-images for snapshot readers,
   stamps feed first-committer-wins conflict detection, and both hold
   only what the oldest open snapshot can still read — they are trimmed
   whenever that snapshot closes, and emptied with the last one — so a
   store without open sessions pays one list-emptiness check per write
   and nothing else. *)
and mvcc = {
  mutable commit_seq : int; (* committed-write epoch, monotone *)
  mutable direct_dirty : bool;
      (* default-session writes share one provisional epoch until sealed *)
  mutable open_sessions : session list; (* snapshot sessions, newest first *)
  mutable next_session_id : int;
  versions : (int * Heap.entry option) list Oid.Table.t;
      (* per-oid pre-image chain, newest epoch first: [(e, v)] is the
         entry's state from just before the write at epoch [e]
         ([None] = the object did not exist yet) *)
  vstamps : int Oid.Table.t; (* oid -> epoch of its last committed write *)
  root_versions : (string, (int * Pvalue.t option) list) Hashtbl.t;
  root_stamps : (string, int) Hashtbl.t;
  blob_versions : (string, (int * string option) list) Hashtbl.t;
  blob_stamps : (string, int) Hashtbl.t;
}

and session_kind =
  | Direct (* the default session: operations apply to the shared state *)
  | Snapshot_session of int (* epoch pinned at [open_session] *)

and session = {
  s_id : int;
  s_store : t;
  s_kind : session_kind;
  s_overlay : Heap.entry Oid.Table.t;
      (* read-your-writes: private copies of objects this session wrote *)
  s_root_over : (string, Pvalue.t option) Hashtbl.t; (* [None] = removed *)
  s_blob_over : (string, string option) Hashtbl.t;
  mutable s_ops : Journal.op list; (* buffered writes, newest first *)
  mutable s_nops : int;
  mutable s_written : Oid.Set.t; (* pre-existing oids this session wrote *)
  mutable s_allocated : Oid.Set.t; (* oids reserved by this session's allocs *)
  mutable s_state : [ `Live | `Committed | `Aborted ];
}

type store = t

let default_compaction_limit = 4096
let max_shards = 64
let default_breaker = 3

(* The re-runs a transiently failed stabilise gets with [retry] on. *)
let retries = 3

(* A shard whose image load had to salvage this many entries opens
   degraded (given a neighbour, see [open_file]). *)
let salvage_heavy = 8

module Config = struct
  type nonrec t = {
    durability : durability;
    compaction_limit : int;
    group_window : int;
    retry : bool;
    breaker : int;
    backing : string option;
    shards : int;
  }

  let default =
    {
      durability = Journalled;
      compaction_limit = default_compaction_limit;
      group_window = 1;
      retry = false;
      breaker = default_breaker;
      backing = None;
      shards = 1;
    }
end

let make_shard () =
  {
    sq = Quarantine.create ();
    scrcs = Oid.Table.create 64;
    sscrub = Scrub.create ();
    shealth = Health.create ();
    swal = None;
    spending = [];
    spending_count = 0;
    sepoch = 0;
    sdirty = false;
    sneeds_full = false;
    sremembered = Oid.Set.empty;
  }

let fresh_mvcc () =
  {
    commit_seq = 0;
    direct_dirty = false;
    open_sessions = [];
    next_session_id = 1;
    versions = Oid.Table.create 64;
    vstamps = Oid.Table.create 64;
    root_versions = Hashtbl.create 16;
    root_stamps = Hashtbl.create 16;
    blob_versions = Hashtbl.create 16;
    blob_stamps = Hashtbl.create 16;
  }

let make ?(obs = Obs.create ()) nshards =
  if nshards < 1 || nshards > max_shards then
    invalid_arg (Printf.sprintf "Store: shard count must be in 1..%d" max_shards);
  let rec store =
    {
      heap = Heap.create ();
      roots = Roots.create ();
      blobs = Hashtbl.create 16;
      shards = Array.init nshards (fun _ -> make_shard ());
      obs;
      marker = None;
      marker_epoch = -1;
      seq = 0;
      committed = 0;
      retry = false;
      breaker = default_breaker;
      unhealthy = 0;
      backing = None;
      pins = [];
      stabilise_count = 0;
      gc_count = 0;
      needs_full = true;
      compaction_limit = default_compaction_limit;
      scrub_next = 0;
      compactions = 0;
      replayed = 0;
      recovered_torn = false;
      mvcc = fresh_mvcc ();
      direct;
    }
  and direct =
    {
      s_id = 0;
      s_store = store;
      s_kind = Direct;
      s_overlay = Oid.Table.create 1;
      s_root_over = Hashtbl.create 1;
      s_blob_over = Hashtbl.create 1;
      s_ops = [];
      s_nops = 0;
      s_written = Oid.Set.empty;
      s_allocated = Oid.Set.empty;
      s_state = `Live;
    }
  in
  store

let heap store = store.heap
let roots store = store.roots
let obs store = store.obs

(* -- shard routing -------------------------------------------------------- *)

let nshards store = Array.length store.shards
let shards = nshards

let shard_ix_oid store oid = Manifest.shard_of_oid ~count:(Array.length store.shards) oid
let shard_ix_key store key = Manifest.shard_of_key ~count:(Array.length store.shards) key
let shard_of = shard_ix_oid
let shard_oid store oid = Array.unsafe_get store.shards (shard_ix_oid store oid)
let shard_key store key = store.shards.(shard_ix_key store key)

(* The neighbour predicate.  Demoting a shard — the circuit breaker, a
   salvage-heavy or unreadable image at open — only makes sense while
   another shard keeps serving.  A shard without a neighbour also owns
   the whole store, so its image is the store's contents, not a slice
   of them. *)
let has_neighbour store = Array.length store.shards > 1

(* The layout rules, from [Manifest]. *)
let image_file store path k e = Manifest.image_file ~count:(nshards store) path k e
let wal_file store path k e = Manifest.wal_file ~count:(nshards store) path k e
let gated store = Manifest.gated ~count:(nshards store)

(* A gated store appends only while its commit marker is open. *)
let marker_missing store = gated store && store.marker = None

let manifest_of store ~marker_epoch =
  {
    Manifest.nshards = nshards store;
    marker_epoch;
    epochs = Array.map (fun sh -> sh.sepoch) store.shards;
  }

let backing store = store.backing

(* -- shard health (fault domains) -----------------------------------------

   Each shard is a fault domain: a run of failed attempts at its I/O
   (the circuit breaker), a salvage-heavy image load, or an
   unreadable image at open demote ONLY that shard.  A demoted shard is
   read-only — reads serve from memory, writes raise the typed
   [Failure.Shard_degraded] — while every other shard keeps full
   service.  [Store.repair] is the way back.

   The hot-path cost while everything is healthy is one int load
   ([store.unhealthy = 0]). *)

let refresh_unhealthy store =
  store.unhealthy <-
    Array.fold_left (fun acc sh -> if Health.healthy sh.shealth then acc else acc + 1) 0
      store.shards

let shard_healthy store k = Health.healthy store.shards.(k).shealth
let healthy store = store.unhealthy = 0

let check_shard_index store k =
  if k < 0 || k >= nshards store then
    invalid_arg (Printf.sprintf "Store: shard %d out of range (store has %d)" k (nshards store))

let degrade_shard store k reason =
  check_shard_index store k;
  Health.degrade store.shards.(k).shealth reason;
  refresh_unhealthy store

let refuse_write store k st =
  let sh = store.shards.(k) in
  Health.note_refused_write sh.shealth;
  Obs.incr store.obs Obs.Degraded_op;
  let state, reason =
    match st with
    | Health.Degraded r -> ("degraded", r)
    | Health.Offline r -> ("offline", r)
    | Health.Healthy -> ("healthy", "") (* unreachable: guards check first *)
  in
  raise (Failure.Shard_degraded { shard = k; state; reason })

(* Write guard: free while all shards are healthy, one state check on
   the op's own shard otherwise. *)
let guard_shard_write store k =
  if store.unhealthy > 0 then begin
    match Health.state store.shards.(k).shealth with
    | Health.Healthy -> ()
    | st -> refuse_write store k st
  end

let guard_write_oid store oid =
  if store.unhealthy > 0 then guard_shard_write store (shard_ix_oid store oid)

let guard_write_key store key =
  if store.unhealthy > 0 then guard_shard_write store (shard_ix_key store key)

(* Reads always serve (that is the point of degraded mode); a read that
   lands on a demoted shard is counted so operators can see traffic
   running on reduced redundancy. *)
let note_read store oid =
  if store.unhealthy > 0 then begin
    let sh = shard_oid store oid in
    if not (Health.healthy sh.shealth) then begin
      Health.note_degraded_read sh.shealth;
      Obs.incr store.obs Obs.Degraded_op
    end
  end

let note_read_key store key =
  if store.unhealthy > 0 then begin
    let sh = shard_key store key in
    if not (Health.healthy sh.shealth) then begin
      Health.note_degraded_read sh.shealth;
      Obs.incr store.obs Obs.Degraded_op
    end
  end

(* The circuit breaker: after a stabilise has given up, demote every
   shard whose count of consecutive failed attempts crossed the
   threshold.  Successful shard I/O resets the count, so only a
   persistent run of failures trips it. *)
let trip_breakers store =
  if store.breaker > 0 && has_neighbour store then begin
    Array.iter
      (fun sh ->
        if Health.healthy sh.shealth && Health.failures sh.shealth >= store.breaker then
          Health.degrade sh.shealth
            (Printf.sprintf "circuit breaker: %d consecutive transient I/O failures"
               (Health.failures sh.shealth)))
      store.shards;
    refresh_unhealthy store
  end

type shard_health = {
  h_shard : int;
  h_state : Health.state;
  h_failures : int; (* consecutive failed attempts *)
  h_trips : int;
  h_degraded_reads : int;
  h_refused_writes : int;
  h_repairs : int;
}

let health store =
  Array.to_list
    (Array.mapi
       (fun k sh ->
         {
           h_shard = k;
           h_state = Health.state sh.shealth;
           h_failures = Health.failures sh.shealth;
           h_trips = Health.trips sh.shealth;
           h_degraded_reads = Health.degraded_reads sh.shealth;
           h_refused_writes = Health.refused_writes sh.shealth;
           h_repairs = Health.repairs sh.shealth;
         })
       store.shards)

let first_unhealthy store =
  let found = ref None in
  Array.iteri
    (fun k sh ->
      if !found = None && not (Health.healthy sh.shealth) then
        found := Some (k, Health.state sh.shealth))
    store.shards;
  !found

(* A failure a re-run may not meet again: an injected fault (the test
   stand-in for flaky media), [Sys_error] or [Unix_error] (an EINTR
   storm, a full disk that drains).  Anything else is a logic error that
   a re-run would only repeat. *)
let transient = function
  | Faults.Fault_injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

(* Run one shard's I/O, feeding its consecutive-failure counter — the
   circuit breaker's input: a transient failure counts one failed
   attempt, success resets it.  Nothing is retried here; the breaker
   trip itself happens once the whole stabilise has given up, in
   [trip_breakers]. *)
let shard_io sh f =
  match f () with
  | v ->
    Health.note_ok sh.shealth;
    v
  | exception e ->
    if transient e then Health.note_failure sh.shealth;
    raise e

(* -- configuration --------------------------------------------------------- *)

(* Every tunable is checked before any is applied, so a rejected
   configuration changes nothing; [open_file] checks its [?config] before
   it touches disk.  [shards] is checked where it matters: by [make] at
   creation and against the store's own count by [configure]. *)
let check_config ctx (c : Config.t) =
  let bad what = invalid_arg (Printf.sprintf "Store.%s: %s" ctx what) in
  if c.Config.compaction_limit < 0 then bad "negative compaction limit";
  if c.Config.group_window <> 1 then
    bad "group commit was removed: every stabilise fsyncs, so group_window must be 1";
  if c.Config.breaker < 0 then bad "negative breaker threshold"

let configure store (c : Config.t) =
  if c.Config.shards <> nshards store then
    invalid_arg
      (Printf.sprintf
         "Store.configure: shard count is fixed at store creation (store has %d, config asks for \
          %d)"
         (nshards store) c.Config.shards);
  check_config "configure" c;
  store.compaction_limit <- c.Config.compaction_limit;
  store.retry <- c.Config.retry;
  store.breaker <- c.Config.breaker;
  (* [backing = None] leaves the current backing alone: store identity is
     not a tunable, and [open_file ?config] must not clear the path it
     just opened. *)
  match c.Config.backing with Some p -> store.backing <- Some p | None -> ()

let config store : Config.t =
  {
    Config.default with
    compaction_limit = store.compaction_limit;
    retry = store.retry;
    breaker = store.breaker;
    backing = store.backing;
    shards = nshards store;
  }

let create ?config () =
  let nshards =
    match config with
    | Some c -> c.Config.shards
    | None -> 1
  in
  let store = make nshards in
  Option.iter (configure store) config;
  store

let mark_dirty store =
  (* Direct heap surgery bypasses [apply_op], which keeps pinned
     snapshots' version chains; a snapshot could not survive it. *)
  if store.mvcc.open_sessions <> [] then
    invalid_arg "Store.mark_dirty: open snapshot sessions pin the object graph; commit or abort them first";
  store.needs_full <- true;
  (* Direct heap surgery invalidates every recorded checksum; the
     scrubber re-primes them on its next pass. *)
  Array.iter (fun sh -> Oid.Table.reset sh.scrcs) store.shards

(* Every journal op belongs to exactly one shard: object mutations hash
   by oid, root/blob mutations by key.  No two shards ever carry ops on
   the same object or key, so cross-shard replay order cannot matter. *)
let record store op =
  let sh =
    match op with
    | Journal.Alloc (oid, _) | Journal.Set_field (oid, _, _) | Journal.Set_elem (oid, _, _) ->
      shard_oid store oid
    | Journal.Set_root (key, _)
    | Journal.Remove_root key
    | Journal.Set_blob (key, _)
    | Journal.Remove_blob key -> shard_key store key
  in
  sh.spending <- op :: sh.spending;
  sh.spending_count <- sh.spending_count + 1

let pending_total store = Array.fold_left (fun acc sh -> acc + sh.spending_count) 0 store.shards

(* -- MVCC versioning ------------------------------------------------------

   Snapshot sessions pin the store's committed-write epoch
   ([mvcc.commit_seq]) at [open_session].  While at least one snapshot
   session is open, every mutation of shared state first preserves the
   pre-image of the object / root / blob it is about to change (once per
   epoch) and stamps the target with the writing epoch.  A snapshot
   reader resolves a target by walking its version chain for the oldest
   pre-image whose epoch is newer than its snapshot; commit uses the
   stamps for first-committer-wins detection.  Closing the oldest open
   session trims the tables to what the next oldest can read
   ([trim_chains]); with no session open they are empty and a write
   pays one list-emptiness check. *)

let sessions_open store = store.mvcc.open_sessions <> []
let open_session_count store = List.length store.mvcc.open_sessions

(* Direct (default-session) writes made since the last seal share one
   provisional epoch, [commit_seq + 1]; sealing closes it off before a
   session pins a snapshot or a commit claims an epoch of its own. *)
let seal_epoch store =
  let m = store.mvcc in
  if m.direct_dirty then begin
    m.commit_seq <- m.commit_seq + 1;
    m.direct_dirty <- false
  end

let capture_oid store epoch oid ~pre_image =
  let m = store.mvcc in
  (match Oid.Table.find_opt m.versions oid with
  | Some ((e, _) :: _) when e = epoch -> () (* already captured this epoch *)
  | prior ->
    let chain = match prior with Some c -> c | None -> [] in
    let before =
      if pre_image then Option.map Journal.copy_entry (Heap.find store.heap oid) else None
    in
    Oid.Table.replace m.versions oid ((epoch, before) :: chain));
  Oid.Table.replace m.vstamps oid epoch

let capture_key versions stamps epoch key current =
  (match Hashtbl.find_opt versions key with
  | Some ((e, _) :: _) when e = epoch -> ()
  | prior ->
    let chain = match prior with Some c -> c | None -> [] in
    Hashtbl.replace versions key ((epoch, current ()) :: chain));
  Hashtbl.replace stamps key epoch

(* The chain is newest-first, so the LAST element whose epoch is newer
   than the snapshot holds the state the snapshot saw. *)
let chain_pick snap chain =
  let rec go best = function
    | [] -> best
    | (e, v) :: rest -> if e > snap then go (Some v) rest else best
  in
  go None chain

(* Drop every chain entry and stamp no snapshot can read again: those
   with epoch [e <= oldest], where [oldest] is the snapshot epoch of the
   oldest open session ([max_int] with none open).  [chain_pick] takes
   only entries newer than a snapshot, [conflicts] flags only stamps
   newer than one, and a session opened later pins at least
   [commit_seq].  Chains are newest first, so the dead entries are a
   tail; a chain left empty goes. *)
let trim_chains m oldest =
  let trim_chain _ chain =
    match List.filter (fun (e, _) -> e > oldest) chain with
    | [] -> None
    | kept -> Some kept
  in
  let trim_stamp _ e = if e > oldest then Some e else None in
  Oid.Table.filter_map_inplace trim_chain m.versions;
  Oid.Table.filter_map_inplace trim_stamp m.vstamps;
  Hashtbl.filter_map_inplace trim_chain m.root_versions;
  Hashtbl.filter_map_inplace trim_stamp m.root_stamps;
  Hashtbl.filter_map_inplace trim_chain m.blob_versions;
  Hashtbl.filter_map_inplace trim_stamp m.blob_stamps

(* Entries in all six tables: chain entries plus stamps. *)
let chain_entries m =
  let chains fold tbl = fold (fun _ chain n -> n + List.length chain) tbl 0 in
  chains Oid.Table.fold m.versions
  + chains Hashtbl.fold m.root_versions
  + chains Hashtbl.fold m.blob_versions
  + Oid.Table.length m.vstamps + Hashtbl.length m.root_stamps + Hashtbl.length m.blob_stamps

let snapshot_entry store snap oid =
  match Oid.Table.find_opt store.mvcc.versions oid with
  | None | Some [] -> Heap.find store.heap oid
  | Some chain -> (
    match chain_pick snap chain with
    | Some before -> before
    | None -> Heap.find store.heap oid)

(* A root or blob key as of [snap]: [versions] is its chain table,
   [current] the live lookup. *)
let snapshot_value versions current snap key =
  match Hashtbl.find_opt versions key with
  | None | Some [] -> current key
  | Some chain -> (
    match chain_pick snap chain with
    | Some v -> v
    | None -> current key)

(* Reads of a quarantined oid fail with the typed [Quarantined] error so
   callers can degrade gracefully instead of consuming corrupt state.
   One lookup: the reason doubles as the membership test. *)
let check_q store oid =
  note_read store oid;
  match Quarantine.find (shard_oid store oid).sq oid with
  | Some reason ->
    Obs.incr store.obs Obs.Quarantine_hit;
    raise (Quarantine.Quarantined (oid, reason))
  | None -> ()

(* A mutation invalidates the object's recorded checksum; the scrubber
   re-primes it on its next pass (trust-on-first-scan — no per-write
   hashing cost on the hot path). *)
let invalidate_crc store oid = Oid.Table.remove (shard_oid store oid).scrcs oid

(* -- quarantine ----------------------------------------------------------- *)

(* Quarantine membership changes cannot be expressed as journal ops, so
   they force a fresh image of the owning shard at the next compaction
   point — which is also what persists the quarantine set across reopen.
   The invariant is shard-local: an oid is quarantined in (and only in)
   its own shard, so only that shard pays the image rewrite
   ([sneeds_full] selects it for compaction). *)
let quarantine_oid store oid reason =
  let sh = shard_oid store oid in
  Quarantine.add sh.sq oid reason;
  Oid.Table.remove sh.scrcs oid;
  sh.sneeds_full <- true

let clear_quarantine store oid =
  let sh = shard_oid store oid in
  if Quarantine.mem sh.sq oid then begin
    Quarantine.remove sh.sq oid;
    sh.sneeds_full <- true
  end

let quarantine_reason store oid = Quarantine.find (shard_oid store oid).sq oid
let is_quarantined store oid = Quarantine.mem (shard_oid store oid).sq oid

let quarantined store =
  Array.fold_left (fun acc sh -> List.rev_append (Quarantine.to_list sh.sq) acc) [] store.shards
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let quarantined_total store =
  Array.fold_left (fun acc sh -> acc + Quarantine.size sh.sq) 0 store.shards

let size store = Heap.size store.heap

(* -- the accessor surface --------------------------------------------------

   Every read and write is defined once, over a session handle.  The only
   step that differs by session kind is resolving an oid or key: the
   default session ([Direct]) reads the shared state, a snapshot session
   its own overlay, then the version chains, then the shared state.
   Writes build a [Journal.op] and hand it to [step]: the default session
   validates it and applies it through [apply_op] — the same path a
   snapshot commit publishes through — while a snapshot session applies
   it to its overlay and buffers it. *)

let check_live s ctx =
  match s.s_state with
  | `Live -> ()
  | `Committed ->
    invalid_arg (Printf.sprintf "Store.Session.%s: session %d already committed" ctx s.s_id)
  | `Aborted ->
    invalid_arg (Printf.sprintf "Store.Session.%s: session %d already aborted" ctx s.s_id)

let resolve s oid =
  match s.s_kind with
  | Direct -> Heap.find s.s_store.heap oid
  | Snapshot_session snap -> (
    match Oid.Table.find_opt s.s_overlay oid with
    | Some _ as e -> e
    | None -> snapshot_entry s.s_store snap oid)

let resolve_root s name =
  match s.s_kind with
  | Direct -> Roots.find s.s_store.roots name
  | Snapshot_session snap -> (
    match Hashtbl.find_opt s.s_root_over name with
    | Some v -> v
    | None ->
      let store = s.s_store in
      snapshot_value store.mvcc.root_versions (Roots.find store.roots) snap name)

let resolve_blob s key =
  match s.s_kind with
  | Direct -> Hashtbl.find_opt s.s_store.blobs key
  | Snapshot_session snap -> (
    match Hashtbl.find_opt s.s_blob_over key with
    | Some v -> v
    | None ->
      let store = s.s_store in
      snapshot_value store.mvcc.blob_versions (Hashtbl.find_opt store.blobs) snap key)

(* The sorted keys a session sees: the live ones, plus — for a snapshot —
   keys changed since it opened and keys it wrote itself, kept if they
   resolve. *)
let visible_keys s resolve live versions over =
  match s.s_kind with
  | Direct -> List.sort String.compare live
  | Snapshot_session _ ->
    let tbl = Hashtbl.create 32 in
    List.iter (fun k -> Hashtbl.replace tbl k ()) live;
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) versions;
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) over;
    Hashtbl.fold (fun k () acc -> if resolve s k <> None then k :: acc else acc) tbl []
    |> List.sort String.compare

let visible s oid =
  check_q s.s_store oid;
  match resolve s oid with
  | Some e -> e
  | None -> Heap.dangling oid

(* One counted read of an oid; [timed_read] also times it while tracing
   is on ([get], [field] and [elem] always have been). *)
let read s ctx oid =
  check_live s ctx;
  Obs.incr s.s_store.obs Obs.Get;
  visible s oid

let timed_read s ctx oid =
  let obs = s.s_store.obs in
  if Obs.enabled obs then
    Obs.span obs Obs.Get ~oid (fun () ->
        check_live s ctx;
        visible s oid)
  else read s ctx oid

(* Refuse an op before it touches shared state: shard health, quarantine
   and dangling targets.  The default session validates each write; a
   snapshot commit validates its whole buffer up front. *)
let validate_op s op =
  let store = s.s_store in
  match op with
  | Journal.Alloc (oid, _) -> guard_write_oid store oid
  | Journal.Set_field (oid, _, _) | Journal.Set_elem (oid, _, _) ->
    guard_write_oid store oid;
    if not (Oid.Set.mem oid s.s_allocated) then begin
      check_q store oid;
      if not (Heap.is_live store.heap oid) then Heap.dangling oid
    end
  | Journal.Set_root (key, _)
  | Journal.Remove_root key
  | Journal.Set_blob (key, _)
  | Journal.Remove_blob key -> guard_write_key store key

let capture_root store epoch key =
  capture_key store.mvcc.root_versions store.mvcc.root_stamps epoch key (fun () ->
      Roots.find store.roots key)

let capture_blob store epoch key =
  capture_key store.mvcc.blob_versions store.mvcc.blob_stamps epoch key (fun () ->
      Hashtbl.find_opt store.blobs key)

(* Apply one op to the shared state.  While snapshot sessions are open,
   the target's pre-image is first captured for them and stamped with
   the epoch being written; then the state is mutated and the op handed
   to the journal buffer — unless the store owes a full compaction, which
   writes the heap itself and would discard the buffer.  Allocations are
   journalled with a copy of the entry: the live entry is mutable, and
   later mutations arrive as their own records. *)
let apply_op store op =
  let capture = sessions_open store in
  let epoch = store.mvcc.commit_seq + 1 in
  (match op with
  | Journal.Alloc (oid, entry) ->
    if capture then capture_oid store epoch oid ~pre_image:false;
    Heap.insert store.heap oid entry;
    invalidate_crc store oid
  | Journal.Set_field (oid, idx, v) ->
    let r = Heap.get_record store.heap oid in
    Heap.check_field oid r idx;
    if capture then capture_oid store epoch oid ~pre_image:true;
    r.Heap.fields.(idx) <- v;
    invalidate_crc store oid
  | Journal.Set_elem (oid, idx, v) ->
    let a = Heap.get_array store.heap oid in
    Heap.check_elem a idx;
    if capture then capture_oid store epoch oid ~pre_image:true;
    a.Heap.elems.(idx) <- v;
    invalidate_crc store oid
  | Journal.Set_root (key, v) ->
    if capture then capture_root store epoch key;
    Roots.set store.roots key v
  | Journal.Remove_root key ->
    if capture then capture_root store epoch key;
    Roots.remove store.roots key
  | Journal.Set_blob (key, data) ->
    if capture then capture_blob store epoch key;
    Hashtbl.replace store.blobs key data
  | Journal.Remove_blob key ->
    if capture then capture_blob store epoch key;
    Hashtbl.remove store.blobs key);
  if not store.needs_full then
    record store
      (match op with
      | Journal.Alloc (oid, entry) -> Journal.Alloc (oid, Journal.copy_entry entry)
      | op -> op)

(* A snapshot write lands on a private copy: the session's own
   allocation, or a copy-on-write of the visible entry (which also enrols
   the oid in the write set for conflict detection). *)
let overlay_entry s snap oid =
  match Oid.Table.find_opt s.s_overlay oid with
  | Some e -> e
  | None -> (
    match snapshot_entry s.s_store snap oid with
    | Some e ->
      let copy = Journal.copy_entry e in
      Oid.Table.replace s.s_overlay oid copy;
      s.s_written <- Oid.Set.add oid s.s_written;
      copy
    | None -> Heap.dangling oid)

let buffer s snap op =
  (match op with
  | Journal.Alloc (oid, entry) ->
    Oid.Table.replace s.s_overlay oid entry;
    s.s_allocated <- Oid.Set.add oid s.s_allocated
  | Journal.Set_field (oid, idx, v) ->
    check_q s.s_store oid;
    let r = Heap.as_record oid (overlay_entry s snap oid) in
    Heap.check_field oid r idx;
    r.Heap.fields.(idx) <- v
  | Journal.Set_elem (oid, idx, v) ->
    check_q s.s_store oid;
    let a = Heap.as_array oid (overlay_entry s snap oid) in
    Heap.check_elem a idx;
    a.Heap.elems.(idx) <- v
  | Journal.Set_root (name, v) -> Hashtbl.replace s.s_root_over name (Some v)
  | Journal.Remove_root name -> Hashtbl.replace s.s_root_over name None
  | Journal.Set_blob (key, data) -> Hashtbl.replace s.s_blob_over key (Some data)
  | Journal.Remove_blob key -> Hashtbl.replace s.s_blob_over key None);
  s.s_ops <- op :: s.s_ops;
  s.s_nops <- s.s_nops + 1

let step s op =
  match s.s_kind with
  | Direct ->
    validate_op s op;
    (* direct writes share one provisional epoch until sealed *)
    if sessions_open s.s_store then s.s_store.mvcc.direct_dirty <- true;
    apply_op s.s_store op
  | Snapshot_session snap -> buffer s snap op

let write s ctx op =
  check_live s ctx;
  let obs = s.s_store.obs in
  match op with
  | (Journal.Set_field (oid, _, _) | Journal.Set_elem (oid, _, _)) when Obs.enabled obs ->
    Obs.span obs Obs.Set ~oid (fun () -> step s op)
  | _ ->
    Obs.incr obs Obs.Set;
    step s op

(* An allocation takes the next oid from the shared allocator — so
   sessions and direct writers never collide — and claims it only once
   the step succeeds.  A snapshot session's entry stays private until
   commit; an aborted session's oids are simply never used. *)
let alloc s label entry =
  check_live s "alloc";
  let heap = s.s_store.heap in
  Obs.span s.s_store.obs Obs.Alloc ~label (fun () ->
      let n = Heap.next_oid heap in
      let oid = Oid.of_int n in
      step s (Journal.Alloc (oid, entry));
      Heap.set_next_oid heap (n + 1);
      oid)

let container_name = function
  | Heap.Record r -> r.Heap.class_name
  | Heap.Array a -> a.Heap.elem_type ^ "[]"
  | Heap.Str _ -> "string"
  | Heap.Weak _ -> "weak cell"

(* -- pins (transient strong roots) --------------------------------------- *)

let add_pin store f = store.pins <- f :: store.pins

let pinned_oids store = List.concat_map (fun f -> f ()) store.pins

(* -- GC & stabilisation -------------------------------------------------- *)

(* Quarantined objects that still have heap entries are kept across GC
   (corrupt data is evidence, and structure reachable only through them
   may still be salvageable), so they seed the mark alongside the pins.
   Quarantine records for already-dead oids contribute nothing. *)
let quarantine_roots store =
  List.filter (Heap.is_live store.heap) (List.map fst (quarantined store))

let gc store =
  (* A sweep reclaims objects a pinned snapshot may still see; sessions
     and GC are therefore mutually exclusive by construction. *)
  if sessions_open store then
    invalid_arg "Store.gc: open snapshot sessions pin the object graph; commit or abort them first";
  (* A sweep touches every shard's objects and forces a full compaction,
     which needs every shard writable — refuse while any is down rather
     than silently dropping a demoted shard's garbage analysis. *)
  (if store.unhealthy > 0 then
     match first_unhealthy store with
     | Some (k, st) -> refuse_write store k st
     | None -> ());
  Obs.span store.obs Obs.Gc (fun () ->
      store.gc_count <- store.gc_count + 1;
      (* A sweep removes objects and clears weak cells behind the journal's
         back; the next stabilise must therefore compact. *)
      store.needs_full <- true;
      let extra_roots = quarantine_roots store @ pinned_oids store in
      let stats, remembered =
        Gc.collect ~nshards:(nshards store) ~shard_of:(shard_ix_oid store) ~extra_roots
          store.heap store.roots
      in
      Array.iteri (fun k r -> store.shards.(k).sremembered <- r) remembered;
      (* Recorded checksums of swept objects are stale, and the sweep may
         have cleared weak-cell targets behind the checksum's back. *)
      Array.iter
        (fun sh ->
          let stale =
            Oid.Table.fold
              (fun oid _ acc ->
                match Heap.find store.heap oid with
                | None | Some (Heap.Weak _) -> oid :: acc
                | Some _ -> acc)
              sh.scrcs []
          in
          List.iter (Oid.Table.remove sh.scrcs) stale)
        store.shards;
      stats)

(* The per-shard quarantine sets merged into a fresh one, so fingerprints
   are identical whatever the shard count. *)
let merged_quarantine store =
  let q = Quarantine.create () in
  Array.iter
    (fun sh -> List.iter (fun (oid, r) -> Quarantine.add q oid r) (Quarantine.to_list sh.sq))
    store.shards;
  q

let contents store =
  {
    Image.heap = store.heap;
    roots = store.roots;
    blobs = store.blobs;
    quarantine = merged_quarantine store;
  }

(* -- scrubbing ------------------------------------------------------------ *)

let default_scrub_budget = 256

(* Each shard's scrubber steps in turn, with its share of the budget:
   [budget / n] each, and one more for the [budget mod n] shards from
   [scrub_next] on, which then moves past them — so repeated small
   budgets visit every shard.  A shard with no share this call does not
   step.  A shard starting a fresh pass reseeds from its own oids; the
   heap is listed at most once per call.  The store-wide pass completes
   when its slowest shard completes one. *)
let scrub ?(budget = default_scrub_budget) store =
  if budget <= 0 then invalid_arg "Store.scrub: budget must be positive";
  Obs.span store.obs Obs.Scrub_step (fun () ->
      let n = nshards store in
      let first = store.scrub_next in
      store.scrub_next <- (first + (budget mod n)) mod n;
      let share k = (budget / n) + if (k - first + n) mod n < budget mod n then 1 else 0 in
      let passes () =
        Array.fold_left (fun acc sh -> min acc (Scrub.passes sh.sscrub)) max_int store.shards
      in
      let passes_before = passes () in
      let all = lazy (List.sort Oid.compare (Heap.oids store.heap)) in
      let total =
        ref { Scrub.scanned = 0; verified = 0; primed = 0; newly_quarantined = []; pass_complete = false }
      in
      Array.iteri
        (fun k sh ->
          if share k > 0 then begin
            let owned () = List.filter (fun oid -> shard_ix_oid store oid = k) (Lazy.force all) in
            let r =
              Scrub.step sh.sscrub ~heap:store.heap ~crcs:sh.scrcs ~quarantine:sh.sq ~reseed:owned
                ~foreign:(fun oid -> shard_ix_oid store oid <> k)
                ~budget:(share k)
            in
            let acc = !total in
            total :=
              {
                acc with
                Scrub.scanned = acc.scanned + r.scanned;
                verified = acc.verified + r.verified;
                primed = acc.primed + r.primed;
                newly_quarantined = acc.newly_quarantined @ r.newly_quarantined;
              }
          end)
        store.shards;
      total := { !total with Scrub.pass_complete = passes () > passes_before };
      (* A dangling target another shard owns was only reported by the
         shard that found it; quarantine it in its owner here (several
         shards may have reported the same target — dedup first). *)
      let newly =
        List.sort_uniq (fun (a, _) (b, _) -> Oid.compare a b) !total.Scrub.newly_quarantined
      in
      List.iter
        (fun (oid, reason) ->
          let sh = shard_oid store oid in
          if not (Quarantine.mem sh.sq oid) then Quarantine.add sh.sq oid reason;
          Oid.Table.remove sh.scrcs oid;
          sh.sneeds_full <- true)
        newly;
      { !total with Scrub.newly_quarantined = newly })

let scrub_progress store =
  Scrub.merge (Array.to_list (Array.map (fun sh -> sh.sscrub) store.shards))

let wal_depth store =
  Array.fold_left
    (fun acc sh ->
      acc
      +
      match sh.swal with
      | Some w -> Journal.depth w
      | None -> 0)
    0 store.shards

(* -- stabilisation -----------------------------------------------------------

   One path for every shard count.  [image_file], [wal_file], [gated] and
   [Manifest.commit] carry the layout: with several shards, each
   compaction writes fresh epoch files and commits them with one
   manifest rename; one shard keeps its image at [path] and its journal
   at [Journal.path_for path], and its image rename is the commit. *)

(* Shard [k]'s part of the store contents [c]. *)
let shard_contents store c k =
  if has_neighbour store then
    Image.slice
      ~keep_oid:(fun oid -> shard_ix_oid store oid = k)
      ~keep_key:(fun key -> shard_ix_key store key = k)
      c
  else c

let sync_dirty_shards store =
  Array.iteri
    (fun k sh ->
      if sh.sdirty && Health.healthy sh.shealth then
        Faults.with_shard_scope k (fun () ->
            shard_io sh (fun () ->
                (match sh.swal with
                | Some w -> Journal.sync w
                | None -> ());
                sh.sdirty <- false)))
    store.shards

(* The journalled append path.  Each dirty shard gets one batch record.
   On a gated store one store-level sequence number covers the whole
   stabilise: every batch is stamped with it, and it is committed by
   appending it to the marker only after every dirty journal is fsynced.
   A lone journal needs no marker, so its batches carry no number.
   Every append is fsynced before it returns.  On failure the whole
   stabilise rolls back (see below), and [sneeds_full] routes the
   shards that took part through compaction at the next attempt. *)
let append_delta store =
  let marker = store.marker in
  (* A demoted shard takes no part: its pending ops stay buffered (they
     describe heap state that [repair]'s rewrite will persist) and its
     files are not touched.  Demotion therefore never loses a delta — it
     just defers that shard's durability to the repair. *)
  let active sh = Health.healthy sh.shealth in
  let have_pending = Array.exists (fun sh -> active sh && sh.spending <> []) store.shards in
  let seq' = if have_pending then store.seq + 1 else store.seq in
  let stamp = Option.map (fun _ -> seq') marker in
  let saves =
    Array.map
      (fun sh ->
        match sh.swal with
        | Some w when active sh && sh.spending <> [] ->
          Some (w, Journal.position w, Journal.depth w)
        | _ -> None)
      store.shards
  in
  let msave = Option.map Faults.log_position marker in
  match
    Array.iteri
      (fun k sh ->
        match saves.(k) with
        | None -> ()
        | Some (w, _, _) ->
          Faults.with_shard_scope k (fun () ->
              shard_io sh (fun () ->
                  Journal.append_batch ?seq:stamp w (List.rev sh.spending);
                  sh.sdirty <- true)))
      store.shards;
    sync_dirty_shards store;
    match marker with
    | Some marker when seq' > store.committed ->
      Manifest.Marker.append marker seq';
      Faults.sync_log marker;
      store.committed <- seq'
    | _ -> ()
  with
  | () ->
    store.seq <- seq';
    Array.iteri
      (fun k sh ->
        if saves.(k) <> None || sh.spending = [] then begin
          sh.spending <- [];
          sh.spending_count <- 0
        end)
      store.shards
  | exception e ->
    (* Roll the whole stabilise back.  Only the shards whose journals
       took part are marked for a fresh image — a healthy shard must not
       pay for its neighbour's failure.  Under a marker those journals
       are also truncated to their savepoints: a batch left behind would
       carry the sequence number the next stabilise reuses, and the
       marker would then commit it.  A lone journal's torn tail is left
       for recovery to cut. *)
    Array.iteri
      (fun k save ->
        match save with
        | Some (w, pos, depth) ->
          if marker <> None then (try Journal.truncate_to w ~pos ~depth with _ -> ());
          store.shards.(k).sneeds_full <- true
        | None -> ())
      saves;
    (match (marker, msave) with
    | Some m, Some pos -> ( try Faults.truncate_log m pos with _ -> ())
    | _ -> ());
    raise e

(* Compaction.  [selected] says which shards get a fresh image.  When it
   selects every shard the compaction is full: it needs no delta first
   and, on a gated store, rotates the commit marker.  A partial
   compaction first makes the current delta durable through the OLD
   journals and the marker, so the subsequent image writes can fail or
   tear anywhere without losing it — nothing references a new-epoch
   file until the manifest rename, which is the single commit point. *)
let compact store path ~selected =
  Obs.span store.obs Obs.Compaction (fun () ->
      let n = nshards store in
      let full = Array.for_all Fun.id selected in
      if not full then append_delta store;
      let c = contents store in
      let new_wals = Array.make n None in
      let created_marker = ref None in
      match
        Array.iteri
          (fun k sh ->
            if selected.(k) then begin
              let e' = sh.sepoch + 1 in
              let wal' = wal_file store path k e' in
              if String.equal wal' (wal_file store path k sh.sepoch) then begin
                (* The new journal takes the old one's name (the flat
                   names), so the old handle goes first.  A crash
                   before the new header lands leaves a journal naming
                   the old image's checksum, which recovery discards. *)
                Option.iter (fun w -> Faults.close_log (Journal.log w)) sh.swal;
                sh.swal <- None;
                sh.sdirty <- false
              end;
              Faults.with_shard_scope k (fun () ->
                  (* Idempotent under a re-run: the image write is
                     tmp+rename and the journal create truncates — each
                     attempt rewrites the same new-epoch paths from
                     scratch. *)
                  shard_io sh (fun () ->
                      let crc =
                        Image.save ~obs:store.obs (image_file store path k e')
                          (shard_contents store c k)
                      in
                      new_wals.(k) <- Some (Journal.create ~obs:store.obs wal' ~base_crc:crc)))
            end)
          store.shards;
        (* a full compaction rotates the marker: sequence numbers restart
           at zero with the fresh journals *)
        let rotate = full && gated store in
        let marker_epoch' = if rotate then store.marker_epoch + 1 else store.marker_epoch in
        if rotate then
          created_marker := Some (Manifest.Marker.create (Manifest.marker_path path marker_epoch'));
        let epochs' =
          Array.mapi (fun k sh -> if selected.(k) then sh.sepoch + 1 else sh.sepoch) store.shards
        in
        Manifest.commit path { Manifest.nshards = n; marker_epoch = marker_epoch'; epochs = epochs' };
        (marker_epoch', epochs')
      with
      | marker_epoch', epochs' ->
        Array.iteri
          (fun k sh ->
            if selected.(k) then begin
              Option.iter (fun w -> Faults.close_log (Journal.log w)) sh.swal;
              sh.swal <- new_wals.(k);
              sh.sdirty <- false;
              sh.sneeds_full <- false;
              sh.sepoch <- epochs'.(k)
            end)
          store.shards;
        if full then begin
          Option.iter Faults.close_log store.marker;
          store.marker <- !created_marker;
          store.marker_epoch <- marker_epoch';
          store.seq <- 0;
          store.committed <- 0
        end;
        (* A demoted shard's pending ops stay buffered for its repair:
           its image was not selected, its journal was not appended —
           clearing them would drop the only record that a rewrite is
           still owed. *)
        Array.iter
          (fun sh ->
            if Health.healthy sh.shealth then begin
              sh.spending <- [];
              sh.spending_count <- 0
            end)
          store.shards;
        store.needs_full <- false;
        store.compactions <- store.compactions + 1;
        Manifest.cleanup_stale path (manifest_of store ~marker_epoch:marker_epoch')
      | exception e ->
        (* nothing references the new-epoch files (the manifest rename did
           not land); the old state on disk is intact.  Drop the fresh
           handles — a re-run truncates and rewrites the same paths. *)
        Array.iter (Option.iter (fun w -> Faults.close_log (Journal.log w))) new_wals;
        Option.iter Faults.close_log !created_marker;
        if full then store.needs_full <- true
        else Array.iteri (fun k sh -> if selected.(k) then sh.sneeds_full <- true) store.shards;
        raise e)

(* Each shard's slice of the compaction limit, rounded up; a limit of 0
   compacts every shard that has anything to write. *)
let per_shard_limit store =
  let n = nshards store in
  (store.compaction_limit + n - 1) / n

(* One stabilisation attempt.  Every failure path is idempotent, which
   is what makes re-running it whole safe (see [stabilise]): a failed
   journal append has marked the shards that took part for a fresh
   image (so the next attempt compacts them instead of appending after
   torn bytes), and a failed compaction just rewrites the same new files
   from scratch. *)
let stabilise_once store path =
  let active sh = Health.healthy sh.shealth in
  (* Missing files of a DEMOTED shard don't force anything: that shard
     is out of service and its rebuild is [repair]'s job.  Only a
     healthy shard without a journal makes appending impossible. *)
  let any_missing =
    marker_missing store || Array.exists (fun sh -> active sh && sh.swal = None) store.shards
  in
  let limit = per_shard_limit store in
  let over sh =
    (match sh.swal with
    | Some w -> Journal.depth w
    | None -> 0)
    + sh.spending_count
    > limit
  in
  let want sh = active sh && (over sh || sh.sneeds_full) in
  if store.needs_full || any_missing then begin
    (* A full compaction rewrites every shard and rotates the marker —
       it cannot proceed around a dead shard.  Refuse with the typed
       error naming the shard that must be repaired first. *)
    (if store.unhealthy > 0 then
       match first_unhealthy store with
       | Some (k, st) -> refuse_write store k st
       | None -> ());
    compact store path ~selected:(Array.make (nshards store) true)
  end
  else if Array.exists want store.shards then
    (* Per-shard compaction: only the shards over their slice of the
       limit (or owing a quarantine-change image) pay the rewrite — the
       hot shard compacts while cold shards keep their journals. *)
    compact store path ~selected:(Array.map want store.shards)
  else append_delta store

let stabilise ?path store =
  let path =
    match path, store.backing with
    | Some p, _ ->
      store.backing <- Some p;
      p
    | None, Some p -> p
    | None, None -> invalid_arg "Store.stabilise: no backing file"
  in
  store.stabilise_count <- store.stabilise_count + 1;
  Obs.span store.obs Obs.Stabilise (fun () ->
      (* The store's one retry boundary: with [retry] on, a transient
         failure re-runs the whole attempt at once, up to [retries] more
         times.  The per-shard failure counters were fed while the
         attempts ran; the breaker trips here, once, after the whole
         stabilise has given up. *)
      let rec attempt n =
        match stabilise_once store path with
        | () -> ()
        | exception e when store.retry && n < retries && transient e ->
          Obs.incr store.obs Obs.Retry;
          attempt (n + 1)
        | exception e ->
          trip_breakers store;
          raise e
      in
      attempt 0)

(* -- open / recovery ------------------------------------------------------ *)

let distribute_quarantine store q =
  List.iter (fun (oid, reason) -> Quarantine.add (shard_oid store oid).sq oid reason)
    (Quarantine.to_list q)

(* Every oid any surviving entry or root still references.  Weak targets
   count too: resurrecting a weak reference onto a recycled oid would
   alias just like a strong one. *)
let iter_referenced_oids store f =
  Heap.iter
    (fun _ entry ->
      List.iter f (Heap.strong_refs entry);
      match entry with
      | Heap.Weak { Heap.target = Pvalue.Ref o } -> f o
      | _ -> ())
    store.heap;
  Roots.iter
    (fun _ v ->
      match v with
      | Pvalue.Ref o -> f o
      | _ -> ())
    store.roots

(* After a shard's image is lost, its allocation history is unknown;
   handing out an oid number a survivor still references would alias the
   dangling reference onto a fresh object.  Advance the allocator past
   everything still referenced from the surviving shards. *)
let bump_past_references store =
  let bump = ref (Heap.next_oid store.heap) in
  iter_referenced_oids store (fun o -> if Oid.to_int o >= !bump then bump := Oid.to_int o + 1);
  Heap.set_next_oid store.heap !bump

(* References from survivors into the shards [lost_in] selects that
   have no live object are permanently lost; quarantine them (the owning
   shard's next compaction persists that) so reads fail with the typed
   reason instead of a bare dangling error. *)
let quarantine_lost_refs store ~lost_in reason =
  let lost = ref Oid.Set.empty in
  iter_referenced_oids store (fun o ->
      if
        lost_in (shard_ix_oid store o)
        && (not (Heap.is_live store.heap o))
        && not (is_quarantined store o)
      then lost := Oid.Set.add o !lost);
  Oid.Set.iter
    (fun o ->
      let sh = shard_oid store o in
      Quarantine.add sh.sq o reason;
      sh.sneeds_full <- true)
    !lost;
  Oid.Set.cardinal !lost

(* Load one image file.  A crash between writing an image and renaming
   it can leave the complete image under the temp name; promote it
   rather than fail. *)
let load_image ~obs file =
  try Image.load_report ~obs file
  with (Image.Image_error _ | Codec.Decode_error _ | Sys_error _) as e -> (
    let tmp = file ^ ".tmp" in
    match Image.load_report ~obs tmp with
    | r ->
      Faults.rename tmp file;
      r
    | exception _ -> raise e)

(* The batches of [jr] that recovery replays: on a gated store those up
   to the first one numbered past [committed] — another shard's half of
   that stabilise may be missing, and the marker is the only witness
   that all halves landed.  A lone journal's batches carry no number and
   all replay. *)
let committed_batches (jr : Journal.replay) ~committed =
  let rec go = function
    | { Journal.b_seq = Some s; _ } :: _ when s > committed -> []
    | b :: rest -> b :: go rest
    | [] -> []
  in
  go jr.Journal.batches

let ops_of batches = List.concat_map (fun (b : Journal.batch) -> b.Journal.b_ops) batches

(* Merge one shard image's tables into the store's: its entries at oids
   not already live, the oid counter, roots, blobs, and its quarantine
   set into the shard's.  Returns the entries inserted. *)
let merge_shard store sh (c : Image.contents) =
  let inserted = ref 0 in
  Heap.iter
    (fun oid entry ->
      if not (Heap.is_live store.heap oid) then begin
        Heap.insert store.heap oid entry;
        incr inserted
      end)
    c.Image.heap;
  if Heap.next_oid c.Image.heap > Heap.next_oid store.heap then
    Heap.set_next_oid store.heap (Heap.next_oid c.Image.heap);
  Roots.iter (Roots.set store.roots) c.Image.roots;
  Hashtbl.iter (Hashtbl.replace store.blobs) c.Image.blobs;
  List.iter (fun (oid, reason) -> Quarantine.add sh.sq oid reason) (Quarantine.to_list c.Image.quarantine);
  !inserted

(* Replay one shard's journal [jr] on top of its loaded image, then
   reopen the journal for appending after the last replayed batch.
   Returns the ops replayed. *)
let replay_journal store sh wpath (jr : Journal.replay) ~committed =
  let batches = committed_batches jr ~committed in
  let ops = ops_of batches in
  List.iter (fun op -> Journal.apply op store.heap store.roots store.blobs) ops;
  let valid_bytes =
    List.fold_left (fun _ (b : Journal.batch) -> b.Journal.b_end) Journal.header_size batches
  in
  if jr.Journal.torn then store.recovered_torn <- true;
  sh.swal <-
    Some (Journal.open_for_append ~obs:store.obs wpath ~valid_bytes ~depth:(List.length ops));
  List.length ops

(* Open: load every shard image in turn, merge, then replay each
   shard's journal.  On a gated store only batches up to the marker's
   committed sequence number replay; batches past it are dropped whole —
   another shard's half of the same stabilise may be missing, and the
   marker is the only witness that all halves landed.

   Shard faults are contained at open, given a neighbour to keep
   serving: an unreadable image takes ONLY that shard offline (its slice
   of the heap stays empty until [repair]); a salvage-heavy load — at
   least [salvage_heavy] quarantined entries — opens the shard
   degraded.  The rest of the store loads and serves normally.  Without
   a neighbour an unreadable image fails the open. *)
let open_file ?config path =
  Option.iter (check_config "open_file") config;
  let obs = Obs.create () in
  let m = Manifest.layout path in
  let n = m.Manifest.nshards in
  let store = make ~obs n in
  store.backing <- Some path;
  let parts : Image.load_report option array = Array.make n None in
  let fails = Array.make n None in
  Array.iteri
    (fun k sh ->
      Faults.with_shard_scope k (fun () ->
          match
            shard_io sh (fun () ->
                load_image ~obs:store.obs (image_file store path k m.Manifest.epochs.(k)))
          with
          | r -> parts.(k) <- Some r
          | exception
              (( Image.Image_error _ | Codec.Decode_error _ | Sys_error _
               | Faults.Fault_injected _ | Unix.Unix_error _ ) as e) ->
            fails.(k) <- Some e))
    store.shards;
  (* Health transitions happen here, once every shard has loaded. *)
  Array.iteri
    (fun k fail ->
      match (fail, parts.(k)) with
      | Some e, _ when not (has_neighbour store) -> raise e
      | Some e, _ ->
        Health.offline store.shards.(k).shealth ("image load failed: " ^ Printexc.to_string e)
      | None, Some r
        when has_neighbour store && r.Image.lr_salvaged >= salvage_heavy ->
        Health.degrade store.shards.(k).shealth
          (Printf.sprintf "salvage-heavy image load: %d entries quarantined" r.Image.lr_salvaged)
      | _ -> ())
    fails;
  refresh_unhealthy store;
  (* The first loaded shard's tables become the store's; the others
     merge into them. *)
  let adopted = ref false in
  Array.iteri
    (fun k part ->
      match part with
      | None -> ()
      | Some (r : Image.load_report) when !adopted ->
        ignore (merge_shard store store.shards.(k) r.Image.lr_contents)
      | Some (r : Image.load_report) ->
        let c = r.Image.lr_contents in
        adopted := true;
        store.heap <- c.Image.heap;
        store.roots <- c.Image.roots;
        store.blobs <- c.Image.blobs;
        Quarantine.replace_all store.shards.(k).sq ~from:c.Image.quarantine)
    parts;
  (* Epochs are persistent state: a compaction that forgot them would
     overwrite live image files in place instead of committing fresh
     epoch files through the manifest rename. *)
  Array.iteri (fun k sh -> sh.sepoch <- m.Manifest.epochs.(k)) store.shards;
  (* Which journal batches count as committed: on a gated store, those
     the marker records ([None]: no marker — a store written before every
     store journalled — or a marker too damaged to trust any batch); a
     lone journal replays them all. *)
  let committed =
    if not (gated store) then Some max_int
    else if m.Manifest.marker_epoch < 0 then None
    else begin
      store.marker_epoch <- m.Manifest.marker_epoch;
      let mpath = Manifest.marker_path path m.Manifest.marker_epoch in
      match Manifest.Marker.read mpath with
      | None -> None
      | Some mr ->
        store.committed <- mr.Manifest.Marker.committed;
        store.seq <- mr.Manifest.Marker.committed;
        store.marker <-
          Some (Manifest.Marker.open_for_append mpath ~valid_bytes:mr.Manifest.Marker.valid_bytes);
        Some mr.Manifest.Marker.committed
    end
  in
  (match committed with
  | None -> () (* nothing replays; [needs_full], set since [make], rebuilds every shard *)
  | Some committed ->
    (* A missing or stale journal (its base image moved on, or the file
       tore at the header): its image already holds or supersedes the
       journalled effects that mattered — force a fresh full compaction
       rather than trusting the tail.  Only when every journal matched
       its image may the next stabilise append. *)
    let all_good = ref true in
    Array.iteri
      (fun k sh ->
        match parts.(k) with
        | None -> () (* offline: [repair] salvages its journal later *)
        | Some (r : Image.load_report) -> (
          let wpath = wal_file store path k m.Manifest.epochs.(k) in
          match Journal.read wpath with
          | Some jr ->
            if Int32.equal jr.Journal.base_crc r.Image.lr_crc then
              store.replayed <- store.replayed + replay_journal store sh wpath jr ~committed
            else all_good := false
          | None -> all_good := false))
      store.shards;
    store.needs_full <- not !all_good);
  (* A salvage load quarantined objects the on-disk image does not yet
     record as such; mark the owning shard so its next compaction point
     persists the quarantine set. *)
  Array.iter
    (fun sh -> if not (Quarantine.is_empty sh.sq) then sh.sneeds_full <- true)
    store.shards;
  (* A demoted shard's deferred delta dies with the process, while its
     healthy neighbours made theirs durable: a surviving reference may
     name an object only the demoted shard had allocated.  Such targets
     are lost as if their shard had been; quarantine them, and keep the
     allocator past every reference so the hole never aliases a fresh
     object.  (An offline shard's targets wait for [repair].) *)
  let lost =
    if has_neighbour store then
      quarantine_lost_refs store
        ~lost_in:(fun k ->
          match Health.state store.shards.(k).shealth with Health.Offline _ -> false | _ -> true)
        "lost in a crash while its shard was demoted"
    else 0
  in
  if store.unhealthy > 0 || lost > 0 then bump_past_references store;
  Option.iter (fun (c : Config.t) -> configure store { c with Config.shards = n }) config;
  (* Files from epochs this manifest superseded (a crash mid-compaction
     leaves them behind) are unreferenced — sweep them now. *)
  Manifest.cleanup_stale path m;
  store

(* Drop every journal and marker handle through [drop]: [close] closes
   them, [crash] abandons their buffered bytes.  A no-op when there are
   none, as on an unbacked store or after a previous close or crash, so
   both are idempotent. *)
let release_handles store drop =
  Array.iter
    (fun sh ->
      Option.iter (fun w -> drop (Journal.log w)) sh.swal;
      sh.swal <- None;
      sh.sdirty <- false)
    store.shards;
  Option.iter drop store.marker;
  store.marker <- None

(* [close] also seals a final observability snapshot and empties the
   trace ring; [crash] drops the ring without snapshotting, exactly as a
   process crash would lose in-flight trace state. *)
let close store =
  (* durability barrier: sync any shard a failed sync left dirty before
     the handles go.  The marker needs no commit here: a stabilise
     commits its sequence number before it returns, a failed one leaves
     [seq] unchanged and a full compaction resets both to 0. *)
  (try if Array.exists (fun sh -> sh.sdirty) store.shards then sync_dirty_shards store
   with _ -> ());
  if store.marker <> None then assert (store.seq = store.committed);
  release_handles store Faults.close_log;
  Obs.flush store.obs

let crash store =
  release_handles store Faults.crash_log;
  Obs.drop store.obs

(* -- repair ---------------------------------------------------------------- *)

type repair_report = {
  r_shard : int;
  r_was : Health.state; (* the state the shard was repaired out of *)
  r_restored : int; (* heap entries recovered from its on-disk image *)
  r_replayed : int; (* journal ops re-applied on top of them *)
  r_lost : int; (* referenced oids that stayed unrecoverable (quarantined) *)
  r_ms : float; (* repair time on the monotonic clock, milliseconds *)
}

(* Rebuild an OFFLINE shard's slice of the heap from whatever survives on
   disk: the image (salvage-tolerant), then its journal — gated by the
   marker's committed sequence number exactly like normal recovery, but
   op-by-op lenient: an op whose base object was unrecoverable is
   skipped, not fatal.  The degraded case needs none of this — memory
   was never lost, only the shard's files fell out of trust. *)
let rebuild_offline_shard store k ~restored ~replayed =
  match store.backing with
  | None -> ()
  | Some path ->
    let sh = store.shards.(k) in
    let img =
      try Some (Image.load_report ~obs:store.obs (image_file store path k sh.sepoch))
      with _ -> None
    in
    Option.iter
      (fun (r : Image.load_report) ->
        restored := !restored + merge_shard store sh r.Image.lr_contents)
      img;
    (match Journal.read (wal_file store path k sh.sepoch) with
    | None -> ()
    | Some jr ->
      let fresh =
        match img with
        | Some r -> Int32.equal jr.Journal.base_crc r.Image.lr_crc
        | None -> true (* no image to pair against: best-effort salvage *)
      in
      if fresh then
        List.iter
          (fun op ->
            match Journal.apply op store.heap store.roots store.blobs with
            | () -> incr replayed
            | exception _ -> ())
          (ops_of (committed_batches jr ~committed:store.committed)))

let repair store k =
  check_shard_index store k;
  let sh = store.shards.(k) in
  match Health.state sh.shealth with
  | Health.Healthy -> None
  | was ->
    Some
      (Obs.span store.obs Obs.Repair (fun () ->
           let t0 = Monotonic_clock.now () in
           let restored = ref 0 and replayed = ref 0 in
           (match was with
           | Health.Offline _ -> rebuild_offline_shard store k ~restored ~replayed
           | _ -> ());
           let lost =
             match was with
             | Health.Offline _ ->
               quarantine_lost_refs store ~lost_in:(fun j -> j = k)
                 "lost with its shard (unrecovered by repair)"
             | _ -> 0
           in
           Health.promote sh.shealth;
           refresh_unhealthy store;
           (* The shard's recorded checksums describe entries from before
              the outage; let the scrubber re-prime them. *)
           Oid.Table.reset sh.scrcs;
           (* Durable rewrite: the shard owes the disk a fresh image
              covering everything that happened while it was out of
              service (buffered pending ops, salvage quarantine, the
              rebuild).  On a backed store, pay it now. *)
           sh.sneeds_full <- true;
           (match store.backing with
           | Some path -> begin
             match
               if store.needs_full || marker_missing store then begin
                 if store.unhealthy = 0 then
                   compact store path ~selected:(Array.make (nshards store) true)
                 (* else: another shard is still down — the last repair
                    reaches this full compaction for everyone *)
               end
               else compact store path ~selected:(Array.init (nshards store) (fun i -> i = k))
             with
             | () -> ()
             | exception e ->
               (* the rewrite never landed: go back out of service rather
                  than pretend the promotion stuck *)
               Health.degrade sh.shealth ("repair rewrite failed: " ^ Printexc.to_string e);
               refresh_unhealthy store;
               raise e
           end
           | None -> ());
           {
             r_shard = k;
             r_was = was;
             r_restored = !restored;
             r_replayed = !replayed;
             r_lost = lost;
             r_ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6;
           }))

let repair_all store = List.filter_map (repair store) (List.init (nshards store) Fun.id)

type stats = {
  live : int;
  gc_count : int;
  stabilise_count : int;
  journal_depth : int;
  pending_ops : int;
  journal_replayed : int;
  compactions : int;
  recovered_torn_tail : bool;
  quarantined : int;
  io_retries : int;
  unhealthy_shards : int;
  chain_entries : int;
}

let stats store =
  {
    live = Heap.size store.heap;
    gc_count = store.gc_count;
    stabilise_count = store.stabilise_count;
    journal_depth = wal_depth store;
    pending_ops = pending_total store;
    journal_replayed = store.replayed;
    compactions = store.compactions;
    recovered_torn_tail = store.recovered_torn;
    quarantined = quarantined_total store;
    io_retries = Obs.count store.obs Obs.Retry;
    unhealthy_shards = store.unhealthy;
    chain_entries = chain_entries store.mvcc;
  }

(* -- per-shard introspection ---------------------------------------------- *)

type shard_info = {
  shard : int;
  objects : int;
  quarantined : int;
  journal_bytes : int;
  pending_ops : int;
  remembered : int;
  state : string; (* "healthy" | "degraded" | "offline" *)
}

let shard_info store =
  let n = nshards store in
  let objects = Array.make n 0 in
  Heap.iter
    (fun oid _ ->
      let k = shard_ix_oid store oid in
      objects.(k) <- objects.(k) + 1)
    store.heap;
  List.init n (fun k ->
      let sh = store.shards.(k) in
      {
        shard = k;
        objects = objects.(k);
        quarantined = Quarantine.size sh.sq;
        journal_bytes =
          (match sh.swal with
          | Some w -> Journal.position w - Journal.header_size
          | None -> 0);
        pending_ops = sh.spending_count;
        remembered = Oid.Set.cardinal sh.sremembered;
        state = Health.state_name (Health.state sh.shealth);
      })

(* -- transactions ---------------------------------------------------------- *)

let clear_pins store = store.pins <- []

let restore_contents store (restored : Image.contents) =
  Heap.replace_all store.heap ~from:restored.Image.heap;
  Roots.replace_all store.roots ~from:restored.Image.roots;
  Hashtbl.reset store.blobs;
  Hashtbl.iter (Hashtbl.replace store.blobs) restored.Image.blobs;
  Array.iter
    (fun sh ->
      Quarantine.replace_all sh.sq ~from:(Quarantine.create ());
      (* The rollback replaced objects wholesale; recorded checksums no
         longer describe the live entries. *)
      Oid.Table.reset sh.scrcs)
    store.shards;
  distribute_quarantine store restored.Image.quarantine

(* Run [f] with whole-store rollback: on an exception the heap, roots and
   blobs are restored to their state at entry (oids included) from an
   in-memory image taken at entry, and the exception is returned.  The
   body may do anything a top-level caller may, stabilise and gc
   included.  If it stabilised, the disk now holds state the abort threw
   away, so one full compaction writes the entry state back — on every
   layout alike. *)
let with_rollback store f =
  (* Rolling shared state back out from under a pinned snapshot would
     falsify it (and the versions/stamps describing it). *)
  if sessions_open store then
    invalid_arg
      "Store.with_rollback: open snapshot sessions would observe the rollback; commit or abort \
       them first";
  let image = Image.encode (contents store) in
  let pending = Array.map (fun sh -> (sh.spending, sh.spending_count)) store.shards in
  let disk_writes () = store.stabilise_count + store.compactions in
  let writes_at_entry = disk_writes () in
  match f () with
  | result -> Ok result
  | exception e ->
    restore_contents store (Image.decode image);
    Array.iteri
      (fun k sh ->
        let ops, count = pending.(k) in
        sh.spending <- ops;
        sh.spending_count <- count)
      store.shards;
    if disk_writes () <> writes_at_entry then begin
      store.needs_full <- true;
      stabilise store
    end;
    Error e

(* -- sessions: the handle-first surface ------------------------------------

   [Session.t] is the unit of isolation.  Two kinds share the handle:

   - the DEFAULT session ([default_session]), which the store holds and
     code that owns the store alone uses: its operations apply to the shared state
     directly;

   - SNAPSHOT sessions ([open_session]): each pins the committed-write
     epoch at open, reads a byte-stable view of that instant (plus its
     own writes), buffers every write privately, and publishes them all
     at once at [Session.commit] — through the same [apply_op] the
     default session writes through, and made durable by the stabilise
     that ends the commit.  First committer wins: a commit whose write
     set overlaps anything committed after its snapshot raises the typed
     [Failure.Commit_conflict] and aborts, touching nothing. *)

(* Pin a snapshot of the committed state as of now.  Any unsealed direct
   writes are sealed first, so the new session's epoch cleanly separates
   "before open" from "after open".  The default session never buffers,
   so its record is a clean template for the new handle. *)
let open_session store =
  let m = store.mvcc in
  seal_epoch store;
  let s =
    {
      store.direct with
      s_id = m.next_session_id;
      s_kind = Snapshot_session m.commit_seq;
      s_overlay = Oid.Table.create 16;
      s_root_over = Hashtbl.create 8;
      s_blob_over = Hashtbl.create 8;
    }
  in
  m.next_session_id <- m.next_session_id + 1;
  m.open_sessions <- s :: m.open_sessions;
  s

let default_session store = store.direct

module Session = struct
  type nonrec t = session

  let id s = s.s_id

  let is_snapshot s =
    match s.s_kind with
    | Direct -> false
    | Snapshot_session _ -> true

  let snapshot_epoch s =
    match s.s_kind with
    | Direct -> s.s_store.mvcc.commit_seq
    | Snapshot_session e -> e

  let state s = s.s_state
  let is_open s = s.s_state = `Live
  let buffered_ops s = s.s_nops

  let store s = s.s_store

  (* -- reads and writes ------------------------------------------------------ *)

  let get s oid = timed_read s "get" oid

  let find s oid =
    check_live s "find";
    Obs.incr s.s_store.obs Obs.Get;
    if is_quarantined s.s_store oid then None else resolve s oid

  let is_live s oid = resolve s oid <> None
  let class_of s oid = Heap.entry_class (read s "class_of" oid)
  let get_record s oid = Heap.as_record oid (read s "get_record" oid)
  let get_array s oid = Heap.as_array oid (read s "get_array" oid)
  let get_string s oid = Heap.as_string oid (read s "get_string" oid)
  let get_weak s oid = Heap.as_weak oid (read s "get_weak" oid)

  let field s oid idx = Heap.record_field oid (Heap.as_record oid (timed_read s "field" oid)) idx

  let elem s oid idx = Heap.array_elem (Heap.as_array oid (timed_read s "elem" oid)) idx
  let array_length s oid = Array.length (Heap.as_array oid (read s "array_length" oid)).Heap.elems

  let string_value s = function
    | Pvalue.Ref oid -> get_string s oid
    | v -> raise (Heap.Heap_error ("expected a string reference, got " ^ Pvalue.to_string v))

  let try_get s oid =
    let store = s.s_store in
    check_live s "try_get";
    note_read store oid;
    Obs.incr store.obs Obs.Get;
    match Quarantine.find (shard_oid store oid).sq oid with
    | Some reason ->
      Obs.incr store.obs Obs.Quarantine_hit;
      Error (Failure.Quarantined { oid; reason })
    | None -> (
      match resolve s oid with
      | Some entry -> Ok entry
      | None -> Error (Failure.Dangling oid))

  let try_field s oid idx =
    match try_get s oid with
    | Error e -> Error e
    | Ok entry -> (
      match Heap.record_field oid (Heap.as_record oid entry) idx with
      | v -> Ok v
      | exception Heap.Heap_error _ ->
        Error (Failure.Bad_index { container = container_name entry; index = idx }))

  let root s name =
    check_live s "root";
    note_read_key s.s_store name;
    Obs.incr s.s_store.obs Obs.Root_lookup;
    resolve_root s name

  let root_names s =
    check_live s "root_names";
    let store = s.s_store in
    visible_keys s resolve_root
      (Roots.fold (fun k _ acc -> k :: acc) store.roots [])
      store.mvcc.root_versions s.s_root_over

  let blob s key =
    check_live s "blob";
    note_read_key s.s_store key;
    Obs.incr s.s_store.obs Obs.Get;
    resolve_blob s key

  let blob_keys s =
    check_live s "blob_keys";
    let store = s.s_store in
    visible_keys s resolve_blob
      (Hashtbl.fold (fun k _ acc -> k :: acc) store.blobs [])
      store.mvcc.blob_versions s.s_blob_over

  let set_field s oid idx v = write s "set_field" (Journal.Set_field (oid, idx, v))
  let set_elem s oid idx v = write s "set_elem" (Journal.Set_elem (oid, idx, v))
  let set_root s name v = write s "set_root" (Journal.Set_root (name, v))
  let remove_root s name = write s "remove_root" (Journal.Remove_root name)
  let set_blob s key data = write s "set_blob" (Journal.Set_blob (key, data))
  let remove_blob s key = write s "remove_blob" (Journal.Remove_blob key)

  let alloc_record s class_name fields = alloc s class_name (Heap.Record { Heap.class_name; fields })
  let alloc_array s elem_type elems = alloc s elem_type (Heap.Array { Heap.elem_type; elems })
  let alloc_string s str = alloc s "string" (Heap.Str str)
  let alloc_weak s target = alloc s "weak" (Heap.Weak { Heap.target })

  (* -- close-out: commit / abort ------------------------------------------ *)

  (* The oldest open snapshot is the last one opened ([open_sessions]
     is newest first); with none open, nothing old can be read. *)
  let rec oldest_snapshot = function
    | [] -> max_int
    | [ s ] -> snapshot_epoch s
    | _ :: rest -> oldest_snapshot rest

  (* Closing the oldest snapshot raises the oldest pinned epoch, and
     only then does a trim walk the chains: closing any other session,
     or the same idle oldest staying open, costs nothing. *)
  let unpin s final_state =
    let m = s.s_store.mvcc in
    let before = oldest_snapshot m.open_sessions in
    s.s_state <- final_state;
    m.open_sessions <- List.filter (fun o -> o != s) m.open_sessions;
    let after = oldest_snapshot m.open_sessions in
    if after > before then trim_chains m after

  let drop_buffer s =
    Oid.Table.reset s.s_overlay;
    Hashtbl.reset s.s_root_over;
    Hashtbl.reset s.s_blob_over;
    s.s_ops <- [];
    s.s_nops <- 0

  let abort s =
    match s.s_kind with
    | Direct -> invalid_arg "Store.Session.abort: the default session has no buffered writes"
    | Snapshot_session _ ->
      check_live s "abort";
      (* no journal residue by construction: nothing ever left the buffer *)
      drop_buffer s;
      unpin s `Aborted

  let conflicts s snap =
    let m = s.s_store.mvcc in
    let oids =
      Oid.Set.fold
        (fun oid acc ->
          match Oid.Table.find_opt m.vstamps oid with
          | Some e when e > snap -> oid :: acc
          | _ -> acc)
        s.s_written []
      |> List.sort Oid.compare
    in
    let key_conflicts stamps over =
      Hashtbl.fold
        (fun key _ acc ->
          match Hashtbl.find_opt stamps key with
          | Some e when e > snap -> key :: acc
          | _ -> acc)
        over []
    in
    let keys =
      List.sort_uniq String.compare
        (key_conflicts m.root_stamps s.s_root_over @ key_conflicts m.blob_stamps s.s_blob_over)
    in
    (oids, keys)

  let commit s =
    match s.s_kind with
    | Direct -> if s.s_store.backing <> None then stabilise s.s_store
    | Snapshot_session snap ->
      check_live s "commit";
      let store = s.s_store in
      seal_epoch store;
      let oids, keys = conflicts s snap in
      if oids <> [] || keys <> [] then begin
        Obs.incr store.obs Obs.Conflict;
        let session = s.s_id in
        (* the first committer won: abort, then hand the caller the clash
           set so it can retry against the new state *)
        drop_buffer s;
        unpin s `Aborted;
        raise (Failure.Commit_conflict { session; oids; keys })
      end;
      (* Refuse the whole commit before touching shared state, so a
         refused commit leaves the heap and the journal untouched and the
         session live for a later retry. *)
      let ops = List.rev s.s_ops in
      List.iter (validate_op s) ops;
      Obs.span store.obs Obs.Session_commit
        ~label:(Printf.sprintf "session %d" s.s_id)
        (fun () ->
          (if ops <> [] then begin
             List.iter
               (fun op ->
                 Obs.incr store.obs
                   (match op with
                   | Journal.Alloc _ -> Obs.Alloc
                   | _ -> Obs.Set);
                 apply_op store op)
               ops;
             store.mvcc.commit_seq <- store.mvcc.commit_seq + 1
           end);
          drop_buffer s;
          unpin s `Committed;
          (* the commit barrier: a committed delta on a backed store is
             durable before control returns — a journal fsync, not a
             full image write *)
          if ops <> [] && store.backing <> None then stabilise store)

  (* Open a session, run the body, then commit — or abort if the body
     raises.  A body that already closed its session is left alone. *)
  let with_session store f =
    let s = open_session store in
    match f s with
    | v ->
      if is_open s then commit s;
      v
    | exception e ->
      if is_open s then abort s;
      raise e

  (* -- snapshot introspection --------------------------------------------- *)

  let live_count s =
    match s.s_kind with
    | Direct -> Heap.size s.s_store.heap
    | Snapshot_session snap ->
      (* no entry is ever removed while sessions are open (GC is gated),
         so the visible set is a subset of the live heap *)
      let n = ref 0 in
      Heap.iter
        (fun oid _ -> if snapshot_entry s.s_store snap oid <> None then incr n)
        s.s_store.heap;
      !n

  let stats s = { (stats s.s_store) with live = live_count s }

  (* The session's full visible state (snapshot plus its own writes) as
     fresh store contents — the shape [Store.contents] has, so
     [Image.encode] fingerprints a snapshot byte-stably however much the
     shared store moves on. *)
  let snapshot_contents s =
    check_live s "snapshot_contents";
    let store = s.s_store in
    let heap = Heap.create () in
    let add oid _ =
      match resolve s oid with
      | Some e when not (Heap.is_live heap oid) ->
        Heap.insert heap oid (Journal.copy_entry e);
        if Oid.to_int oid >= Heap.next_oid heap then Heap.set_next_oid heap (Oid.to_int oid + 1)
      | _ -> ()
    in
    Heap.iter add store.heap;
    Oid.Table.iter add s.s_overlay;
    let roots = Roots.create () in
    List.iter (fun n -> Option.iter (Roots.set roots n) (resolve_root s n)) (root_names s);
    let blobs = Hashtbl.create 16 in
    List.iter (fun k -> Option.iter (Hashtbl.replace blobs k) (resolve_blob s k)) (blob_keys s);
    { Image.heap; roots; blobs; quarantine = merged_quarantine store }
end

(* The frozen benchmark (bench/hpbench) calls these five by their old
   store-level names.  Each is the default session's operation; they go
   when ROADMAP item 5 moves the benchmark to [Session]. *)
let set_root store = Session.set_root store.direct
let root store = Session.root store.direct
let root_names store = Session.root_names store.direct
let alloc_array store = Session.alloc_array store.direct
let set_blob store = Session.set_blob store.direct
