(** Bounded retry with full-jitter exponential backoff for transient I/O
    failures.

    Retries only exceptions that plausibly denote a transient
    environmental failure: {!Faults.Fault_injected}, [Sys_error] and
    [Unix.Unix_error].  Everything else propagates immediately. *)

type policy = {
  retries : int;  (** extra attempts after the first failure *)
  base_delay : float;  (** seconds; doubles each retry (before jitter) *)
  max_delay : float;  (** backoff cap in seconds *)
  jitter : bool;
      (** full jitter: each delay is drawn uniformly from [0, capped
          backoff] instead of sleeping the full capped value, so
          concurrent retriers decorrelate *)
  deadline : float;
      (** budget in seconds for the whole run (attempts plus sleeps),
          measured on the monotonic clock; once elapsed + next delay
          would cross it the budget counts as exhausted.  [infinity] =
          attempts-only bound *)
}

val default_policy : policy
(** 3 retries, 1ms base delay, 50ms cap, jittered, 1s deadline. *)

(** {1 I/O classes}

    The store threads its one retry policy through every I/O class
    below; {!class_name} is the label its retries are counted under. *)

type io_class =
  | Stabilise  (** the whole stabilise attempt (outermost wrapper) *)
  | Image_load
  | Image_save
  | Journal_append
  | Marker  (** commit-marker append + fsync *)
  | Compaction

val class_name : io_class -> string

type stats = {
  attempts : int;
  retries : int;
  absorbed : int;  (** operations that failed then eventually succeeded *)
  exhausted : int;  (** operations that failed even after all retries *)
}

val stats : unit -> stats
(** Process-wide counters since start (or the last {!reset_stats}). *)

val reset_stats : unit -> unit

val counters : unit -> (string * int) list
(** Retries per operation label, sorted, for health displays. *)

val transient : exn -> bool

val run :
  ?policy:policy ->
  ?on_retry:(int -> exn -> unit) ->
  ?on_exhausted:(exn -> unit) ->
  ?obs:Obs.t ->
  label:string ->
  (unit -> 'a) ->
  'a
(** Run [f], retrying transient failures up to [policy.retries] times
    (within [policy.deadline]) with full-jitter exponential backoff.

    [on_retry] is called before each retry with the attempt number and
    the exception — use it to restore idempotency (truncate a journal
    back to its savepoint) before the next attempt; exceptions it raises
    are swallowed, never fatal.  [on_exhausted] is called once when a
    transient failure exhausts the budget (the store's circuit breaker
    hooks shard demotion here); its exceptions are swallowed too.
    [obs], when given, has its [Retry] counter bumped per retry.  The
    final failure is re-raised. *)
