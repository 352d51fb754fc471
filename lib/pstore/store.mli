(** The persistent store facade (the paper's PJama analog).

    A store is a heap of objects, a set of named roots, and a blob table,
    with stabilisation to a backing file.  Programs (hyper-programs, class
    files) live in the same store as the data they manipulate.

    {b One surface.}  Every read and mutation of objects, roots and
    blobs goes through a {!Session.t} handle; [Store] itself keeps the
    lifecycle and the store-wide operations (open, close, stabilise, gc,
    health, repair, scrub, stats, sessions).  {!open_session} pins a
    snapshot-isolated MVCC session: byte-stable reads as of open,
    privately buffered writes, published atomically by {!Session.commit}
    with first-committer-wins conflict detection
    ({!Failure.Commit_conflict}).  {!default_session} is the handle of
    code that owns a store alone: it reads and writes the shared state
    directly. *)

type t

type store = t
(** Alias so the {!Session} signature can refer to the store type. *)

(** {1 Durability}

    Every backed store journals: mutations are buffered as write-ahead
    journal ops, stabilise appends and fsyncs just the delta since the
    last stabilise, and the full image is rewritten only at compaction
    points.  While the store owes a full compaction (it is unbacked, has
    never stabilised, or ran an operation the journal cannot express,
    such as {!gc}) nothing is buffered: that compaction writes the heap
    itself.

    A stabilise, and so a session commit on a backed store, returns
    only after its fsync: a stabilise that returned survives any crash.

    [durability] has one constructor and {!configure} ignores
    [Config.durability].  Both stay only because the frozen benchmark
    fixtures name them; they go with its next change. *)

type durability = Journalled

(** {1 Configuration}

    All store tunables in one record, applied atomically with
    {!configure} or at construction time via [?config] on {!create} and
    {!open_file}: the whole record is checked before any of it is
    applied, so a rejected record changes nothing.  This record is the
    only way to retune a live store — the per-knob setters it replaced
    are gone. *)

module Config : sig
  type t = {
    durability : durability;  (** ignored: every store journals *)
    compaction_limit : int;
        (** journal records tolerated before stabilise compacts *)
    group_window : int;
        (** vestigial: must be [1].  Group commit, which deferred the
            fsync of up to [n - 1] stabilises, was removed; every
            stabilise fsyncs.  The field stays only because the frozen
            benchmark fixtures name it, and goes with its next change *)
    retry : bool;
        (** re-run a stabilise that failed with a transient error (an
            injected fault, [Sys_error] or [Unix_error]) at once, up to
            3 more times; [false] = fail fast.  This is the store's only
            retry: no other I/O is retried *)
    breaker : int;
        (** circuit breaker: consecutive failed attempts at one shard's
            I/O before it is demoted to degraded ([0] = never); the trip
            happens once the whole stabilise has given up.
            Demotion needs a neighbour shard that keeps serving, so a
            one-shard store never trips *)
    backing : string option;
        (** [Some p] points the store at a backing file; [None] leaves
            the current backing untouched (identity is not a tunable) *)
    shards : int;
        (** shard count, fixed at store creation.  [n] shards partition
            objects by oid hash (roots and blobs by key hash), each with
            its own image, journal, quarantine set and scrub cursor, so
            a journalled compaction rewrites only the shards that need
            it.  One shard (the default) keeps its image at the backing path
            and its journal at [Journal.path_for] of it; [n > 1] puts a
            manifest at the backing path naming per-shard epoch files
            (see {!Manifest}).  {!configure} on an existing store must repeat the
            store's own count; {!open_file} always adopts the on-disk
            count. *)
  }

  val default : t
  (** Default compaction limit, no retry, breaker threshold 3, backing
      untouched, one shard. *)
end

val create : ?config:Config.t -> unit -> t
(** A fresh, empty store, unbacked unless [config] names a backing
    file.  Its first stabilise writes the full image and creates the
    journal. *)

val open_file : ?config:Config.t -> string -> t
(** Recover a store from a stabilised image.  If a write-ahead journal
    paired with the image exists it is replayed on top (truncating at the
    first torn record); a crash that left a complete-but-unrenamed image
    is promoted.  A store without a usable journal (missing, stale, or
    written before every store journalled) opens from its image alone,
    and its next stabilise compacts and creates the journal.  An explicit
    [config] is applied after recovery, so its tunables win over the
    recovered state; it is checked before anything is read or opened.

    On a store of several shards, shard faults are contained: an
    unreadable shard image takes only that shard {e offline} (see
    {!health}; its slice of the store stays empty until {!repair}), and
    a salvage-heavy shard load (8 or more corrupt entries salvaged from
    its image) opens that shard {e degraded} — the other shards load
    and serve normally.
    @raise Image.Image_error on a corrupt one-shard image with nothing
    to recover.
    @raise Invalid_argument on a bad [config], even for a missing [path]. *)

val configure : t -> Config.t -> unit
(** Apply a whole configuration.  [backing = None] keeps the current
    backing file; [durability] is ignored.
    @raise Invalid_argument, having changed nothing, on a negative
    compaction limit or breaker, a group window other than 1, or a
    shard count other than the store's. *)

val config : t -> Config.t
(** The store's current configuration ([backing] is the current backing
    file, so [configure s (config s)] is the identity). *)

val close : t -> unit
(** Release the journal file handle, if any, and seal the observability
    state: a final counter snapshot is recorded ({!Obs.flush}) and the
    trace ring is emptied.  The store stays usable in memory; the next
    stabilise recreates the handle by compaction.  Idempotent. *)

val crash : t -> unit
(** Test support: simulate a process crash.  The journal descriptor is
    closed without flushing, so buffered bytes are lost, and
    in-flight trace state is dropped without a final snapshot
    ({!Obs.drop}).  The in-memory store should be discarded and the image
    reopened.  Idempotent, and safe after {!close}. *)

val heap : t -> Heap.t
val roots : t -> Roots.t

val obs : t -> Obs.t
(** The store's observability state: operation counters (always on),
    latency histograms and the bounded trace ring (on when tracing is
    enabled via [Obs.set_enabled]). *)

val shards : t -> int
(** The store's shard count (>= 1). *)

val shard_of : t -> Oid.t -> int
(** The shard an oid hashes to (always [0] on a single-shard store). *)

(** {1 Fault domains and shard health}

    On a sharded store each shard is a fault domain with a three-state
    health machine: [Healthy], [Degraded reason] (the circuit breaker
    tripped on a run of failed attempts at the shard's I/O, or the open
    had to salvage heavily around its image), or [Offline reason] (its
    image was unreadable at open).  A shard that is not healthy is
    read-only: reads keep serving from memory (counted as degraded
    reads), writes routed to it raise {!Failure.Shard_degraded}, and
    stabilise simply works around it — every other shard keeps full
    service.  {!repair} is the way back to healthy. *)

type shard_health = {
  h_shard : int;
  h_state : Health.state;
  h_failures : int;  (** consecutive failed attempts at this shard's I/O *)
  h_trips : int;  (** demotions so far (breaker trips + open demotions) *)
  h_degraded_reads : int;  (** reads served while not healthy *)
  h_refused_writes : int;  (** writes refused with [Shard_degraded] *)
  h_repairs : int;  (** successful repairs *)
}

val health : t -> shard_health list
(** Per-shard health, in shard order. *)

val healthy : t -> bool
(** Every shard is healthy (always true on a single-shard store). *)

val shard_healthy : t -> int -> bool

val degrade_shard : t -> int -> string -> unit
(** Operator override: demote a healthy shard to degraded (no-op on an
    already-demoted shard).  @raise Invalid_argument on a bad index. *)

type repair_report = {
  r_shard : int;
  r_was : Health.state;  (** the state the shard was repaired out of *)
  r_restored : int;  (** heap entries recovered from its on-disk image *)
  r_replayed : int;  (** journal ops re-applied on top of them *)
  r_lost : int;
      (** oids still referenced by survivors that stayed unrecoverable;
          they are quarantined with a "lost with its shard" reason *)
  r_ms : float;  (** wall-clock repair time, milliseconds *)
}

val repair : t -> int -> repair_report option
(** Repair one shard; [None] if it is already healthy.  A degraded
    shard's state was never lost — repair promotes it and rewrites its
    image (a partial compaction) so buffered mutations and quarantine
    changes land durably.  An offline shard is first rebuilt from
    whatever survives on disk: its image (salvage-tolerant), then its
    journal gated by the commit marker exactly like normal recovery but
    op-by-op lenient.  Cross-shard references into the shard that remain
    dead afterwards are quarantined as lost, and the allocator is kept
    clear of their oids.  If the durable rewrite fails the shard is
    re-demoted and the failure re-raised.
    @raise Invalid_argument on a bad shard index. *)

val repair_all : t -> repair_report list
(** Repair every unhealthy shard, in shard order. *)

val backing : t -> string option

val mark_dirty : t -> unit
(** Tell the store its heap was mutated behind its back (direct record
    surgery, e.g. schema evolution's instance reconstruction): the next
    stabilise writes a full image rather than trusting the journal.
    @raise Invalid_argument while snapshot sessions are open — untracked
    surgery would tear their pinned views. *)

val size : t -> int
(** Live heap objects. *)

(** {1 Quarantine}

    Corrupt or dangling objects are isolated, not fatal: reads of a
    quarantined oid raise the typed {!Quarantine.Quarantined} error, and
    {!Session.try_get} / {!Session.try_field} return the shared
    {!Failure.t} as data so callers can render broken-link placeholders
    with a single match. *)

val quarantine_oid : t -> Oid.t -> string -> unit
(** Isolate an object (the scrubber and the image salvage loader call
    this; it is also available to operators).  Forces a fresh image of
    the owning shard at the next compaction point, which persists the
    quarantine set. *)

val clear_quarantine : t -> Oid.t -> unit
(** Release an oid from quarantine (repair workflows). *)

val quarantine_reason : t -> Oid.t -> string option
val is_quarantined : t -> Oid.t -> bool

val quarantined : t -> (Oid.t * string) list
(** Sorted by oid. *)

(** {1 Scrubbing}

    The online scrubber: incremental, budgeted passes verifying
    per-object checksums (trust-on-first-scan) and reference health.
    See {!Scrub}. *)

val default_scrub_budget : int

val scrub : ?budget:int -> t -> Scrub.report
(** Scan at most [budget] (default {!default_scrub_budget}) objects,
    resuming where the last call stopped; quarantines objects whose
    recorded checksum no longer matches and targets of dangling
    references.  On a sharded store the budget is split exactly: each
    shard gets [budget / n], and the remainder goes to the next
    [budget mod n] shards in rotation, so repeated small budgets reach
    every shard.  [pass_complete] reports that the slowest shard
    finished a pass.
    @raise Invalid_argument if [budget <= 0]. *)

val scrub_progress : t -> Scrub.state
(** The whole store's scrub progress: every shard's scrubber merged
    with {!Scrub.merge}. *)

(** {1 Pins}

    Transient strong roots contributed by a running VM (static fields,
    stack frames).  The GC honours them in addition to named roots. *)

val add_pin : t -> (unit -> Oid.t list) -> unit

(** {1 Garbage collection and stabilisation} *)

val gc : t -> Gc.stats
(** Mark-and-sweep from the named roots and pins.
    @raise Invalid_argument while snapshot sessions are open — they pin
    the object graph. *)

val contents : t -> Image.contents
(** The store's heap, roots and blobs, viewed as image contents (shared,
    not copied).  [Image.encode (contents s)] is a deterministic
    fingerprint of the whole persistent state. *)

val stabilise : ?path:string -> t -> unit
(** Make the store durable at [path] (or the backing file): append the
    mutation delta to the write-ahead journal as one atomic batch record
    and fsync it before returning, compacting into a fresh image and
    journal when required — the first stabilise, a journal over the
    compaction limit, or after an operation the journal cannot express.
    @raise Invalid_argument if no path is available. *)

type stats = {
  live : int;  (** live heap objects *)
  gc_count : int;
  stabilise_count : int;
  journal_depth : int;  (** records in the write-ahead journal *)
  pending_ops : int;  (** mutations buffered but not yet stabilised *)
  journal_replayed : int;  (** records replayed when this store was opened *)
  compactions : int;
  recovered_torn_tail : bool;  (** open_file dropped a torn journal tail *)
  quarantined : int;  (** objects currently quarantined *)
  io_retries : int;
      (** stabilise re-runs after a transient failure ([Config.retry]);
          the store's [Obs.Retry] count *)
  unhealthy_shards : int;  (** shards currently degraded or offline *)
  chain_entries : int;
      (** MVCC bookkeeping held for open snapshot sessions: version-chain
          entries plus commit stamps; 0 with no session open *)
}

val stats : t -> stats

(** {1 Per-shard introspection} *)

type shard_info = {
  shard : int;
  objects : int;  (** live heap objects hashing to this shard *)
  quarantined : int;
  journal_bytes : int;  (** bytes in this shard's journal body (0 if closed) *)
  pending_ops : int;  (** mutations buffered for this shard *)
  remembered : int;
      (** remembered-set size: live oids here referenced from other
          shards, as of the last {!gc} *)
  state : string;  (** health state name: ["healthy" | "degraded" | "offline"] *)
}

val shard_info : t -> shard_info list
(** One entry per shard, in shard order (a single entry on a
    single-shard store).  Costs one heap iteration. *)

(** {1 Transactions} *)

val clear_pins : t -> unit
(** Drop all registered pins (used when discarding the VM that installed
    them, e.g. on transaction abort). *)

val with_rollback : t -> (unit -> 'a) -> ('a, exn) result
(** Run [f] with whole-store rollback: on an exception the heap, roots
    and blobs are restored to their state at entry (oids included) from
    an in-memory image taken at entry.  The body may stabilise and gc
    like any top-level caller; if it stabilised, the abort forces one
    full compaction, so the store reopens to its pre-transaction state
    on every layout.
    @raise Invalid_argument while snapshot sessions are open — a
    whole-store rollback would rewrite state under their snapshots.
    @raise e if that forced compaction fails (e.g.
    {!Failure.Shard_degraded} while a shard is demoted); memory is
    restored regardless and the next stabilise compacts. *)

(** {1 Sessions}

    The handle-based concurrency surface.  A snapshot session
    ({!open_session}) gives one logical client an isolated view of the
    store:

    - {b snapshot reads} — everything the session reads is the committed
      state as of open, byte-stable however much the shared store moves
      on underneath (MVCC pre-image chains, holding only what the oldest
      open snapshot can read, so a store with no sessions pays one list
      check per mutation and nothing more);
    - {b read-your-writes} — the session's own buffered writes shadow its
      snapshot;
    - {b atomic publication} — {!Session.commit} validates the whole
      buffer against shard health and quarantine, then applies it through
      the same path direct writes take and stabilises a backed store, so
      a committed session is exactly as durable as the same writes made
      directly;
    - {b first-committer-wins} — if any object or root/blob key this
      session wrote was committed by someone else after this session's
      snapshot, commit raises {!Failure.Commit_conflict} carrying the
      clashing oids and keys, and the session aborts having touched
      nothing.

    The {e default session} ({!default_session}) is the other kind: the
    one handle the store holds, which code that owns the store alone
    reads and writes through.  Its reads and writes hit the shared state
    directly — no snapshot, no buffer — and its [commit] is just the
    durability barrier (stabilise a backed store).  Each operation has
    one definition for both kinds; only resolving an oid or key
    differs.

    GC, [with_rollback] and [mark_dirty] refuse to run while snapshot
    sessions are open (they would invalidate pinned views); commit or
    abort every session first.  So a class redefinition, which calls
    [mark_dirty], is refused under an open session; recompiling a class
    byte-identical to the loaded one is not a redefinition and calls
    nothing here. *)

module Session : sig
  type t
  (** A session handle.  Not thread-safe itself: one session belongs to
      one logical client; {e different} sessions on one store are how
      clients overlap. *)

  val id : t -> int
  (** Session ids are per-store, starting at 1; the default session is
      id 0. *)

  val is_snapshot : t -> bool
  (** [false] exactly for the default session. *)

  val snapshot_epoch : t -> int
  (** The commit epoch this session reads as of (the current epoch for
      the default session). *)

  val state : t -> [ `Live | `Committed | `Aborted ]
  val is_open : t -> bool

  val buffered_ops : t -> int
  (** Writes buffered and not yet committed (always [0] for the default
      session, which never buffers). *)

  val store : t -> store
  (** The store this session reads and writes, for the store-wide
      operations ({!stabilise}, {!gc}, {!add_pin}, ...). *)

  (** {2 Reads}

      Evaluated against the session's snapshot plus its own buffered
      writes (the shared state itself, for the default session).
      @raise Invalid_argument on a committed or aborted session. *)

  val get : t -> Oid.t -> Heap.entry
  (** @raise Quarantine.Quarantined if the oid is quarantined.
      @raise Heap.Heap_error if it is dangling.  (So does every other
      read of an oid below except [find], [is_live], [try_get] and
      [try_field].) *)

  val find : t -> Oid.t -> Heap.entry option
  (** [None] for dangling {e and} quarantined oids. *)

  val is_live : t -> Oid.t -> bool
  val class_of : t -> Oid.t -> string
  val get_record : t -> Oid.t -> Heap.record
  val get_array : t -> Oid.t -> Heap.arr
  val get_string : t -> Oid.t -> string
  val get_weak : t -> Oid.t -> Heap.weak_cell
  val field : t -> Oid.t -> int -> Pvalue.t
  val elem : t -> Oid.t -> int -> Pvalue.t
  val array_length : t -> Oid.t -> int

  val string_value : t -> Pvalue.t -> string
  (** Dereference a value expected to be a string reference.
      @raise Heap.Heap_error otherwise. *)

  val try_get : t -> Oid.t -> (Heap.entry, Failure.t) result

  val try_field : t -> Oid.t -> int -> (Pvalue.t, Failure.t) result
  (** Liveness, quarantine {e and} a bad field index are reported as
      [Error] ([Failure.Bad_index] for the latter). *)

  val root : t -> string -> Pvalue.t option
  val root_names : t -> string list
  val blob : t -> string -> string option
  (** Blobs are named byte strings for non-object state; the MiniJava
      runtime keeps its compiled class files here, making classes
      persistent. *)

  val blob_keys : t -> string list

  (** {2 Writes}

      On a snapshot session every write lands in a private buffer
      (copy-on-write overlay for heap objects) and is invisible to every
      other session until {!commit}.  Allocations reserve their oid from
      the shared allocator immediately — so sessions never collide on
      oids — but the entry stays private until commit; an aborted
      session's reserved oids are simply never used. *)

  val set_field : t -> Oid.t -> int -> Pvalue.t -> unit
  val set_elem : t -> Oid.t -> int -> Pvalue.t -> unit
  val alloc_record : t -> string -> Pvalue.t array -> Oid.t
  val alloc_array : t -> string -> Pvalue.t array -> Oid.t
  val alloc_string : t -> string -> Oid.t
  val alloc_weak : t -> Pvalue.t -> Oid.t
  val set_root : t -> string -> Pvalue.t -> unit
  val remove_root : t -> string -> unit
  val set_blob : t -> string -> string -> unit
  val remove_blob : t -> string -> unit

  (** {2 Commit and abort} *)

  val commit : t -> unit
  (** Publish the session's buffered writes atomically and close the
      session, then stabilise a backed store, so a committed session is
      durable when this returns (a journal fsync, not an image write).
      On the default session this is just the durability barrier:
      stabilise a backed store.
      @raise Failure.Commit_conflict if first-committer-wins detection
      refuses the commit; the session is aborted first, having changed
      nothing.
      @raise Failure.Shard_degraded (or [Quarantine.Quarantined] /
      [Heap.Heap_error]) if up-front validation refuses an op; the
      session {e stays live} — nothing was published — so the caller can
      repair and retry the commit.
      @raise Invalid_argument on an already-closed session. *)

  val abort : t -> unit
  (** Discard every buffered write and close the session.  No journal
      residue by construction: nothing ever left the buffer.
      @raise Invalid_argument on the default session or an
      already-closed one. *)

  (** {2 Introspection} *)

  val live_count : t -> int
  (** Objects visible to this session's snapshot. *)

  val stats : t -> stats
  (** Store stats with [live] replaced by this session's
      {!live_count} — counts reflect the snapshot, not the dirty
      buffer. *)

  val snapshot_contents : t -> Image.contents
  (** The session's full visible state (snapshot + own writes) as fresh,
      unshared image contents; [Image.encode] of it is a byte-stable
      fingerprint of the snapshot however much the shared store has
      moved on. *)

  val with_session : store -> (t -> 'a) -> 'a
  (** Open a session, run the body, then commit — or abort if the body
      raises (the exception is re-raised).  A body that already committed
      or aborted its session is left alone.  [Failure.Commit_conflict]
      from the final commit propagates to the caller, the session having
      been aborted. *)
end

val open_session : t -> Session.t
(** Pin a snapshot session on the committed state as of now. *)

val default_session : t -> Session.t
(** The store's direct-mode session (id 0, one per store). *)

val open_session_count : t -> int
(** Snapshot sessions currently open (the default session is not
    counted). *)

(** {1 Benchmark aliases}

    The frozen benchmark ([bench/hpbench]) calls these five by their old
    store-level names.  Each is the {!default_session}'s operation of
    the same name; they go when the benchmark moves to {!Session}
    (ROADMAP item 5). *)

val set_root : t -> string -> Pvalue.t -> unit
val root : t -> string -> Pvalue.t option
val root_names : t -> string list
val alloc_array : t -> string -> Pvalue.t array -> Oid.t
val set_blob : t -> string -> string -> unit
