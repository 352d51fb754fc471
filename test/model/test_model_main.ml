(* One model-based checker for the store contract.

   A case is an op list for one configuration: shards {1, 4} x retry
   {off, on} x breaker {0, 2}.  After
   every op — writes, sessions, stabilise and commit under faults, gc,
   rollback, scrub, crash, close, repair — the store must agree with the
   pure model (model.ml): reads, commit outcomes, refusals, where a
   reopen lands, integrity; the heap's class counts must equal a walk;
   and the MVCC tables must hold no more than the writes made since the
   oldest open session opened.  Every case ends with repair, stabilise and close; a quiet one
   (no fault, no crash) must fingerprint the same on one shard as on
   four.  A failure shrinks to a minimal op list, printed
   with [STORE_SEED=N dune build @model], which replays it.  Plain
   [dune runtest] runs a slice of every configuration; the alias sets
   STORE_FULL for the full count. *)

open Pstore
open Test_support.Support
open Model

let sp = Printf.sprintf

type config = {
  shards : int;
  retry : bool;
  breaker : int;
}

let configs =
  List.concat_map
    (fun shards ->
      List.concat_map
        (fun retry -> List.map (fun breaker -> { shards; retry; breaker }) [ 0; 2 ])
        [ false; true ])
    [ 1; 4 ]

let config_name c =
  sp "shards %d, retry %s, breaker %d" c.shards (if c.retry then "on" else "off") c.breaker

(* A small compaction limit, so compactions (full and per shard) land
   between faults and crashes. *)
let store_config c path =
  {
    Store.Config.default with
    Store.Config.compaction_limit = 8;
    retry = c.retry;
    breaker = c.breaker;
    backing = Some path;
    shards = c.shards;
  }

(* -- ops --------------------------------------------------------------------- *)

type fault = {
  target : int option;  (* one shard, or the whole store *)
  kind : Faults.fault;
}

(* Indices pick modulo what exists: sessions newest first, records in
   oid order.  Roots are k0..k5, blobs b0..b3. *)
type op =
  | Alloc of bool  (* a rooted record, or garbage *)
  | Set_field of int * int
  | Set_root of int
  | Remove_root of int
  | Set_blob of int
  | Remove_blob of int
  | In of int * op  (* the write, made in a session *)
  | Open
  | Read of int
  | Commit of int * fault option
  | Abort of int
  | Stabilise of fault option
  | Gc
  | Rollback  (* with_rollback over an alloc and a root write, then a raise *)
  | Scrub of int
  | Crash
  | Close
  | Repair

let show_fault f =
  (match f.kind with
  | Faults.Intr_storm n -> sp "intr-storm %d" n
  | Faults.Fail_after_bytes n -> sp "fail-after %d" n
  | Faults.Short_write n -> sp "short-write %d" n
  | Faults.Fsync_fails -> "fsync-fails"
  | Faults.Rename_fails -> "rename-fails"
  | Faults.Bit_flip _ | Faults.Kill_after_bytes _ -> "?")
  ^ match f.target with Some k -> sp " on shard %d" k | None -> ""

let rec show_op op =
  let under = Option.fold ~none:"" ~some:(fun f -> " under " ^ show_fault f) in
  match op with
  | Alloc rooted -> if rooted then "alloc" else "alloc garbage"
  | Set_field (r, j) -> sp "set_field #%d.%d" r j
  | Set_root i -> sp "set_root k%d" i
  | Remove_root i -> sp "remove_root k%d" i
  | Set_blob i -> sp "set_blob b%d" i
  | Remove_blob i -> sp "remove_blob b%d" i
  | In (s, w) -> sp "s%d %s" s (show_op w)
  | Open -> "open"
  | Read s -> sp "read s%d" s
  | Commit (s, f) -> sp "commit s%d%s" s (under f)
  | Abort s -> sp "abort s%d" s
  | Stabilise f -> "stabilise" ^ under f
  | Gc -> "gc"
  | Rollback -> "rollback"
  | Scrub b -> sp "scrub %d" b
  | Crash -> "crash"
  | Close -> "close"
  | Repair -> "repair_all"

(* -- generator --------------------------------------------------------------- *)

let fault_gen shards =
  let open QCheck2.Gen in
  let+ target = opt ~ratio:0.5 (int_bound (shards - 1))
  and+ kind =
    oneof
      [
        map (fun n -> Faults.Intr_storm (1 + n)) (int_bound 2) (* absorbable *);
        map (fun n -> Faults.Intr_storm (64 + n)) (int_bound 63) (* exhausting *);
        return Faults.Fsync_fails;
        map (fun n -> Faults.Fail_after_bytes (1 + n)) (oneof [ int_bound 60; int_bound 399 ]);
        map (fun n -> Faults.Short_write n) (int_bound 12);
        return Faults.Rename_fails;
      ]
  in
  { target; kind }

(* A quiet op list has no faults and no crash. *)
let ops_gen ~quiet shards =
  let open QCheck2.Gen in
  let pick = int_bound 7 in
  let fault = if quiet then return None else opt ~ratio:0.4 (fault_gen shards) in
  let write =
    frequency
      [
        (4, map2 (fun r j -> Set_field (r, j)) pick (int_bound 1));
        (3, map (fun i -> Set_root i) (int_bound 5));
        (1, map (fun i -> Remove_root i) (int_bound 5));
        (2, map (fun i -> Set_blob i) (int_bound 3));
        (1, map (fun i -> Remove_blob i) (int_bound 3));
      ]
  in
  let one =
    frequency
      ([
         (4, map (fun b -> Alloc b) (frequencyl [ (3, true); (1, false) ]));
         (11, write);
         (5, map2 (fun s w -> In (s, w)) pick write);
         (2, return Open);
         (1, map (fun s -> Read s) pick);
         (3, map2 (fun s f -> Commit (s, f)) pick fault);
         (1, map (fun s -> Abort s) pick);
         (4, map (fun f -> Stabilise f) fault);
         (1, return Gc);
         (1, return Rollback);
         (1, map (fun b -> Scrub b) (oneofl [ 1; 2; 3; 5; 16 ]));
         (1, return Close);
         (1, return Repair);
       ]
      @ if quiet then [] else [ (2, return Crash) ])
  in
  (* A session commit under a fault (mostly one that outlasts every
     retry), perhaps a second faulted stabilise, then a crash or a
     close: the cross-axis cases no single-feature schedule reached. *)
  let exhausting =
    map (fun n -> { target = None; kind = Faults.Intr_storm (64 + n) }) (int_bound 63)
  in
  let torn_commit =
    let+ i = int_bound 5
    and+ f = frequency [ (3, exhausting); (1, fault_gen shards) ]
    and+ g = opt ~ratio:0.5 (fault_gen shards)
    and+ close = bool in
    [ Open; In (0, Set_root i); Commit (0, Some f) ]
    @ Option.fold ~none:[] ~some:(fun g -> [ Stabilise (Some g) ]) g
    @ [ (if close then Close else Crash) ]
  in
  (* Two stabilises that outlast every retry, each with a write to the
     same root pending, then a third write to it: with the breaker on,
     the root's shard is demoted by then and must refuse the write. *)
  let demoted_write =
    let+ i = int_bound 5 and+ f = exhausting and+ g = exhausting in
    [ Set_root i; Stabilise (Some f); Set_root i; Stabilise (Some g); Set_root i ]
  in
  let group = map (fun op -> [ op ]) one in
  let group =
    if quiet then group else frequency [ (24, group); (1, torn_commit); (1, demoted_write) ]
  in
  map List.concat (list_size (int_range 8 36) group)

(* Shrink by deleting runs of ops, halving the run length down to one;
   QCheck2 re-shrinks from the first smaller list that still fails. *)
let shrink_ops ops =
  let n = List.length ops in
  let rec runs k () =
    if k = 0 then Seq.Nil
    else
      Seq.append
        (Seq.init
           ((n + k - 1) / k)
           (fun c -> List.filteri (fun j _ -> j < c * k || j >= (c + 1) * k) ops))
        (runs (k / 2)) ()
  in
  runs (max 1 (n / 2))

let case_gen shards =
  let open QCheck2.Gen in
  (let* quiet = bool in
   let+ ops = ops_gen ~quiet shards in
   (quiet, ops))
  |> set_shrink (fun (quiet, ops) -> Seq.map (fun ops -> (quiet, ops)) (shrink_ops ops))

(* -- the runner --------------------------------------------------------------- *)

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type run = {
  cfg : config;
  path : string;
  mutable store : Store.t;
  mutable live : state;  (* the committed state *)
  mutable legal : cand list;  (* where a reopen may land, oldest first; see model.ml *)
  mutable sessions : (Store.Session.t * session) list;  (* newest first *)
  mutable step : int;
  mutable torn_commit : bool;  (* the last op was a commit whose stabilise failed *)
  mutable torn_stabilise : bool;  (* the last op was a stabilise that failed *)
  mutable writes : int;  (* shared-state writes attempted so far *)
  mutable opened_at : (Store.Session.t * int) list;  (* [writes] when each session opened *)
}

(* The cross-axis case the slice must reach: crashes right after a
   session commit failed mid-stabilise, on 4 shards. *)
let torn_crashes = ref 0

(* And, on 4 shards, crashes right after a stabilise failed, which the
   model lets land before or after that attempt, and shards the breaker
   demoted. *)
let failed_stabilise_crashes = ref 0
let demotions = ref 0

(* And writes a demoted shard refused, on 4 shards. *)
let refusals = ref 0

(* What a handle reads, shaped as a model state: roots, blobs, and the
   fields of the records roots name. *)
let observe h : state =
  let module S = Store.Session in
  let roots = List.map (fun k -> (k, Option.get (S.root h k))) (S.root_names h) in
  let st = List.fold_left (fun st (k, v) -> State.add (Root k) (V v) st) State.empty roots in
  let st =
    List.fold_left
      (fun st k -> State.add (Blob k) (Data (Option.get (S.blob h k))) st)
      st (S.blob_keys h)
  in
  List.fold_left
    (fun st (_, v) ->
      match v with
      | Pvalue.Ref oid -> (
        match S.find h oid with
        | Some (Heap.Record { Heap.fields; _ }) ->
          Seq.fold_left
            (fun st (j, v) -> State.add (Field (oid, j)) (V v) st)
            st (Array.to_seqi fields)
        | _ -> st)
      | _ -> st)
    st roots

let healthy_shards s = Array.init (Store.shards s) (Store.shard_healthy s)

let refused r shard =
  if Store.shard_healthy r.store shard then fail "a refusal named healthy shard %d" shard;
  if r.cfg.shards = 4 then incr refusals

(* A durability step ended with [live] on disk on the shards of one of
   [took_part] and the last durable state elsewhere.  A stabilise that
   returned is a barrier: its states replace the legal ones. *)
let persist r ~ok took_part =
  let fp =
    if List.for_all (Array.for_all Fun.id) took_part && Store.healthy r.store then
      Some (fingerprint r.store)
    else None
  in
  let states =
    List.concat_map
      (fun c ->
        List.map (fun t -> persisted ~count:r.cfg.shards ~took_part:t c.state r.live) took_part)
      r.legal
  in
  let cands = List.map (fun state -> { state; fp }) (List.sort_uniq compare states) in
  r.legal <- (if ok then cands else r.legal @ cands)

(* Run a durability step with [fault] armed; the outcome comes back as
   data, with the shard health from before the step. *)
let durably r fault f =
  let before = healthy_shards r.store in
  Option.iter (fun f -> Faults.arm ?shard:f.target f.kind) fault;
  let res = match f () with () -> Ok () | exception e -> Error e in
  Faults.disarm ();
  (before, res)

let outcome r ~before = function
  | Ok () -> persist r ~ok:true [ healthy_shards r.store ]
  | Error (Failure.Shard_degraded { shard; _ }) -> refused r shard
  | Error e when transient e ->
    (* it may or may not have passed its commit point, with the shards
       healthy before it or only those still healthy; and healthy shards
       keep accepting writes *)
    let after = healthy_shards r.store in
    if r.cfg.shards = 4 && after <> before then incr demotions;
    persist r ~ok:false [ before; after ];
    Array.iteri
      (fun k ok ->
        if ok then begin
          let key = key_for ~tag:"probe" ~count:r.cfg.shards k in
          r.writes <- r.writes + 2;
          Store.Session.set_blob (Store.default_session r.store) key "x";
          Store.Session.remove_blob (Store.default_session r.store) key
        end)
      after
  | Error e -> fail "a stabilise failed with %s, not a transient error" (Printexc.to_string e)

(* Reopen after a crash or a clean close and check where it landed. *)
let reopen r ~crash =
  let s = Store.open_file ~config:(store_config r.cfg r.path) r.path in
  r.store <- s;
  if not (Store.healthy s) then fail "the reopened store is not healthy";
  if Store.shards s <> r.cfg.shards then fail "reopen changed the shard count to %d" (Store.shards s);
  Integrity.check_exn s;
  let fp = fingerprint s in
  let seen = observe (Store.default_session s) in
  let matches c = match c.fp with Some f -> String.equal f fp | None -> State.equal ( = ) c.state seen in
  match List.find_opt matches r.legal with
  | None ->
    fail "%s landed on none of %d legal states (against the newest, %s)"
      (if crash then "a crash" else "a clean close")
      (List.length r.legal)
      (diff (List.nth r.legal (List.length r.legal - 1)).state seen)
  | Some c ->
    if List.map fst (Store.quarantined s) <> lost c.state then
      fail "recovery quarantined %d objects, the model predicted %d"
        (List.length (Store.quarantined s)) (List.length (lost c.state));
    r.live <- c.state;
    r.legal <- [ { c with fp = Some fp } ];
    r.sessions <- [];
    r.opened_at <- []

let session r i =
  match r.sessions with [] -> None | l -> Some (List.nth l (i mod List.length l))

let check_session (h, ms) =
  let seen = observe h in
  if not (State.equal ( = ) seen (view ms)) then
    fail "session %d reads diverge from its snapshot: %s" (Store.Session.id h) (diff (view ms) seen)

(* A write to [k] lands in the committed state; every open session now
   loses a commit that also writes it. *)
let landed r k v =
  r.live <- apply r.live k v;
  List.iter (fun (_, ms) -> ms.touched <- unit_of k :: ms.touched) r.sessions

let show_clash (oids, keys) =
  String.concat "," (List.map (fun o -> sp "@%d" (Oid.to_int o)) oids @ keys)

let commit r (h, ms) fault =
  check_session (h, ms);
  let want = conflicts ms in
  r.writes <- r.writes + Store.Session.buffered_ops h;
  let before, res = durably r fault (fun () -> Store.Session.commit h) in
  r.sessions <- List.filter (fun (h', _) -> Store.Session.is_open h') r.sessions;
  match res with
  | Error (Failure.Commit_conflict { oids; keys; _ }) ->
    if (oids, keys) <> want then
      fail "session %d conflicted on [%s], the model predicted [%s]" (Store.Session.id h)
        (show_clash (oids, keys)) (show_clash want)
  | _ when want <> ([], []) ->
    fail "session %d was not refused; the model predicted a conflict on [%s]" (Store.Session.id h)
      (show_clash want)
  | Error (Failure.Shard_degraded { shard; _ }) when Store.Session.is_open h -> refused r shard
  | res ->
    (* published; the stabilise after it may still have failed *)
    State.iter (landed r) ms.over;
    r.torn_commit <- (match res with Error e -> transient e | Ok () -> false);
    if not (State.is_empty ms.over) then outcome r ~before res

(* A write's key, new value and store call, on a handle that reads [st];
   [None] names a record that does not exist. *)
let write r st op =
  let v = Pvalue.Int (Int32.of_int r.step) and d = sp "payload-%d" r.step in
  let root i = sp "k%d" i and blob i = sp "b%d" i in
  match op with
  | Set_field (i, j) -> (
    match records st with
    | [] -> None
    | l ->
      let oid = List.nth l (i mod List.length l) in
      Some (Field (oid, j), Some (V v), fun h -> Store.Session.set_field h oid j v))
  | Set_root i -> Some (Root (root i), Some (V v), fun h -> Store.Session.set_root h (root i) v)
  | Remove_root i -> Some (Root (root i), None, fun h -> Store.Session.remove_root h (root i))
  | Set_blob i -> Some (Blob (blob i), Some (Data d), fun h -> Store.Session.set_blob h (blob i) d)
  | Remove_blob i -> Some (Blob (blob i), None, fun h -> Store.Session.remove_blob h (blob i))
  | _ -> None

(* A direct write lands, or is refused on a demoted shard; [true] if it
   landed. *)
let direct r (k, v, call) =
  r.writes <- r.writes + 1;
  match call (Store.default_session r.store) with
  | () ->
    landed r k v;
    true
  | exception Failure.Shard_degraded { shard; _ } ->
    refused r shard;
    false

let exec r op =
  let s = r.store in
  match op with
  | Alloc rooted -> (
    let v = Pvalue.Int (Int32.of_int r.step) in
    r.writes <- r.writes + 1;
    match Store.Session.alloc_record (Store.default_session s) (if rooted then "Node" else "Junk") [| v; v |] with
    | exception Failure.Shard_degraded { shard; _ } -> refused r shard
    | oid ->
      let name = sp "r%d" (Oid.to_int oid) and root = Pvalue.Ref oid in
      if rooted && direct r (Root name, Some (V root), fun h -> Store.Session.set_root h name root)
      then r.live <- State.add (Field (oid, 0)) (V v) (State.add (Field (oid, 1)) (V v) r.live))
  | Set_field _ | Set_root _ | Remove_root _ | Set_blob _ | Remove_blob _ ->
    Option.iter (fun w -> ignore (direct r w : bool)) (write r r.live op)
  | In (i, w) ->
    Option.iter
      (fun (h, ms) ->
        Option.iter
          (fun (k, v, call) ->
            call h;
            ms.over <- State.add k v ms.over)
          (write r (view ms) w))
      (session r i)
  | Open ->
    if List.length r.sessions < 3 then begin
      let h = Store.open_session s in
      r.opened_at <- (h, r.writes) :: r.opened_at;
      r.sessions <- (h, { snap = r.live; over = State.empty; touched = [] }) :: r.sessions
    end
  | Read i -> Option.iter check_session (session r i)
  | Commit (i, fault) -> Option.iter (fun hs -> commit r hs fault) (session r i)
  | Abort i ->
    Option.iter
      (fun (h, ms) ->
        check_session (h, ms);
        Store.Session.abort h;
        r.sessions <- List.filter (fun (h', _) -> h' != h) r.sessions)
      (session r i)
  | Stabilise fault ->
    let before, res = durably r fault (fun () -> Store.stabilise s) in
    r.torn_stabilise <- (match res with Error e -> transient e | Ok () -> false);
    outcome r ~before res
  | Gc -> (
    match Store.gc s with
    | _ ->
      if r.sessions <> [] || not (Store.healthy s) then fail "gc ran with sessions open or a shard down";
      r.live <- collect r.live
    | exception Invalid_argument _ -> if r.sessions = [] then fail "gc was refused with no session open"
    | exception Failure.Shard_degraded { shard; _ } ->
      if r.sessions <> [] then fail "gc checked shard health before open sessions";
      refused r shard)
  | Rollback -> (
    let body () =
      let oid = Store.Session.alloc_record (Store.default_session s) "Node" [| Pvalue.Null; Pvalue.Null |] in
      Store.Session.set_root (Store.default_session s) (sp "r%d" (Oid.to_int oid)) (Pvalue.Ref oid);
      failwith "rolled back"
    in
    match Store.with_rollback s body with
    | Ok _ -> fail "the rollback body returned"
    | Error _ -> if r.sessions <> [] then fail "a rollback ran with sessions open"
    | exception Invalid_argument _ ->
      if r.sessions = [] then fail "a rollback was refused with no session open")
  | Scrub budget ->
    let rep = Store.scrub ~budget s in
    if rep.Scrub.scanned > budget then fail "scrub ~budget:%d scanned %d" budget rep.Scrub.scanned;
    if rep.Scrub.newly_quarantined <> [] then fail "scrub quarantined an intact object"
  | Crash ->
    if r.torn_commit && r.cfg.shards = 4 then incr torn_crashes;
    if r.torn_stabilise && r.cfg.shards = 4 then incr failed_stabilise_crashes;
    Store.crash s;
    reopen r ~crash:true
  | Close ->
    Store.close s;
    reopen r ~crash:false
  | Repair ->
    let reports = Store.repair_all s in
    if not (Store.healthy s) then fail "repair_all left a shard unhealthy";
    List.iter (fun rep -> if rep.Store.r_ms < 0. then fail "repair timed itself negative") reports;
    (* a repair compacts: everything is durable again *)
    if reports <> [] then persist r ~ok:true [ healthy_shards s ]

(* A write adds at most one chain entry and one stamp, and only writes
   made since the oldest open session opened can still be read, so the
   tables hold at most two entries per such write — none with no
   session open.  (The session reads checked at every commit, abort and
   read catch a trim that drops too much.) *)
let check_chains r op =
  let held = (Store.stats r.store).Store.chain_entries in
  let bound =
    match List.rev r.sessions with
    | [] -> 0
    | (oldest, _) :: _ -> 2 * (r.writes - List.assq oldest r.opened_at)
  in
  if held > bound then
    fail "after step %d (%s) the MVCC tables hold %d entries, at most %d may be read" r.step
      (show_op op) held bound

(* Run [ops] plus the convergence tail on a fresh store; the final
   fingerprint comes back for the shard-count equivalence check. *)
let run cfg ops =
  with_dir ~prefix:"model" @@ fun dir ->
  let path = Filename.concat dir "store.hpj" in
  let store = Store.create ~config:(store_config cfg path) () in
  Store.stabilise store;
  let r =
    {
      cfg;
      path;
      store;
      live = State.empty;
      legal = [ { state = State.empty; fp = Some (fingerprint store) } ];
      sessions = [];
      step = 0;
      torn_commit = false;
      torn_stabilise = false;
      writes = 0;
      opened_at = [];
    }
  in
  Fun.protect ~finally:(fun () ->
      Faults.disarm ();
      Store.crash r.store)
  @@ fun () ->
  List.iter
    (fun op ->
      if op <> Crash then begin
        r.torn_commit <- false;
        r.torn_stabilise <- false
      end;
      r.step <- r.step + 1;
      exec r op;
      let seen = observe (Store.default_session r.store) in
      if not (State.equal ( = ) seen r.live) then
        fail "after step %d (%s) direct reads diverge: %s" r.step (show_op op) (diff r.live seen);
      if Store.open_session_count r.store <> List.length r.sessions then
        fail "after step %d the store has %d sessions open, the model %d" r.step
          (Store.open_session_count r.store) (List.length r.sessions);
      let heap = Store.heap r.store in
      if Heap.class_counts heap <> census_walk heap then
        fail "after step %d (%s) the class counts differ from a heap walk" r.step (show_op op);
      check_chains r op)
    (ops @ [ Repair; Stabilise None; Close ]);
  fingerprint r.store

let check cfg (quiet, ops) =
  let fp = run cfg ops in
  if quiet && cfg.shards > 1 && not (String.equal fp (run { cfg with shards = 1 } ops)) then
    fail "the same fault-free ops fingerprint differently on 1 and %d shards" cfg.shards;
  true

(* -- alcotest wiring ------------------------------------------------------------ *)

let seed = Option.value ~default:20 (Option.bind (Sys.getenv_opt "STORE_SEED") int_of_string_opt)
(* Cases per configuration: 224 in all for the slice, 2,560 for @model. *)
let count = if Sys.getenv_opt "STORE_FULL" <> None then 320 else 28

let () = Printexc.register_printer (function Violation m -> Some m | _ -> None)

let property i cfg =
  let print (quiet, ops) =
    String.concat "\n  " ((if quiet then "quiet:" else "ops:") :: List.map show_op ops)
    ^ sp "\nreplay exactly with: STORE_SEED=%d dune build @model" seed
  in
  QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| seed; i |])
    (QCheck2.Test.make ~count ~name:(config_name cfg) ~print (case_gen cfg.shards) (check cfg))

let () =
  Alcotest.run "store-model"
    [
      ("configurations", List.mapi property configs);
      ( "coverage",
        [
          test "a crash inside a session commit on 4 shards" (fun () ->
              check_bool "reached" true (!torn_crashes > 0));
          test "a crash right after a failed stabilise on 4 shards" (fun () ->
              check_bool "reached" true (!failed_stabilise_crashes > 0));
          test "a breaker demotion on 4 shards" (fun () ->
              check_bool "reached" true (!demotions > 0));
          test "a write refused by a demoted shard on 4 shards" (fun () ->
              check_bool "reached" true (!refusals > 0));
        ] );
    ]
