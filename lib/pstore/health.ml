(* Per-shard health tracking: the fault-domain state machine.

   Each shard of a sharded store carries one tracker.  The state moves

     Healthy --(breaker trips / salvage-heavy open)--> Degraded
     Healthy --(image unreadable at open)-----------> Offline
     Degraded/Offline --(Store.repair)--------------> Healthy

   [failures] counts *consecutive* failed attempts at the shard's I/O
   (one per stabilise attempt that raised a transient error there): any
   successful I/O on the shard resets it, so one flaky write never trips
   the breaker — only a run of them. *)

type state =
  | Healthy
  | Degraded of string
  | Offline of string

type t = {
  mutable state : state;
  mutable failures : int; (* consecutive failed attempts *)
  mutable trips : int; (* circuit-breaker demotions *)
  mutable degraded_reads : int; (* reads served while not healthy *)
  mutable refused_writes : int; (* writes rejected with Shard_degraded *)
  mutable repairs : int;
}

let create () =
  {
    state = Healthy;
    failures = 0;
    trips = 0;
    degraded_reads = 0;
    refused_writes = 0;
    repairs = 0;
  }

let state t = t.state

let healthy t =
  match t.state with
  | Healthy -> true
  | Degraded _ | Offline _ -> false

let state_name = function
  | Healthy -> "healthy"
  | Degraded _ -> "degraded"
  | Offline _ -> "offline"

let describe = function
  | Healthy -> "healthy"
  | Degraded reason -> "degraded: " ^ reason
  | Offline reason -> "offline: " ^ reason

(* Demotion never clobbers a harder state: an offline shard stays
   offline until repaired, whatever the breaker sees meanwhile. *)
let degrade t reason =
  match t.state with
  | Healthy ->
    t.state <- Degraded reason;
    t.trips <- t.trips + 1
  | Degraded _ | Offline _ -> ()

let offline t reason =
  match t.state with
  | Healthy | Degraded _ ->
    t.state <- Offline reason;
    t.trips <- t.trips + 1
  | Offline _ -> ()

let promote t =
  if not (healthy t) then t.repairs <- t.repairs + 1;
  t.state <- Healthy;
  t.failures <- 0

(* Failure accounting, fed by shard I/O. *)
let note_failure t = t.failures <- t.failures + 1
let note_ok t = t.failures <- 0
let note_degraded_read t = t.degraded_reads <- t.degraded_reads + 1
let note_refused_write t = t.refused_writes <- t.refused_writes + 1
let failures t = t.failures
let trips t = t.trips
let degraded_reads t = t.degraded_reads
let refused_writes t = t.refused_writes
let repairs t = t.repairs
