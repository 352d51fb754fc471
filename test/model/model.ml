(* The pure model of the store contract: the committed state, the states
   a crash may legally land on, and snapshot sessions with what others
   wrote since they opened, which decides first-committer-wins.  Nothing
   here touches a store; the runner (test_model_main.ml) compares a real
   one with it. *)

open Pstore

(* A state is what a reader sees: roots, blobs, and the fields of the
   records roots name. *)
type key =
  | Root of string
  | Blob of string
  | Field of Oid.t * int

type value =
  | V of Pvalue.t
  | Data of string

module State = Map.Make (struct
  type t = key

  let compare = compare
end)

type state = value State.t

let apply (st : state) k = function
  | Some v -> State.add k v st
  | None -> State.remove k st

(* The first key on which two states disagree, for failure messages. *)
let diff (want : state) (got : state) =
  let show = function Some (V v) -> Pvalue.to_string v | Some (Data d) -> d | None -> "-" in
  let differ = State.merge (fun _ w g -> if w = g then None else Some (w, g)) want got in
  match State.min_binding_opt differ with
  | None -> "no key differs, only the bytes"
  | Some ((Root k | Blob k), (w, g)) -> Printf.sprintf "%s: model %s, store %s" k (show w) (show g)
  | Some (Field (oid, j), (w, g)) ->
    Printf.sprintf "field %d.%d: model %s, store %s" (Oid.to_int oid) j (show w) (show g)

let records (st : state) =
  State.fold (fun k _ acc -> match k with Field (oid, 0) -> oid :: acc | _ -> acc) st []
  |> List.rev

(* Readers see only the records roots name (GC sweeps the rest); only
   roots hold references. *)
let collect (st : state) : state =
  let rooted oid = State.exists (fun _ v -> v = V (Pvalue.Ref oid)) st in
  State.filter (fun k _ -> match k with Field (oid, _) -> rooted oid | _ -> true) st

(* Objects a root names without their fields: the root's shard kept its
   delta and the object's demoted shard lost its own, so recovery
   quarantines them. *)
let lost (st : state) =
  State.fold (fun _ v acc -> match v with V (Pvalue.Ref oid) -> oid :: acc | _ -> acc) st []
  |> List.filter (fun oid -> not (State.mem (Field (oid, 0)) st))
  |> List.sort_uniq Oid.compare

(* -- durability ------------------------------------------------------------

   The states the disk may hold, oldest first; a crash or a clean close
   lands on one of them.  Every stabilise that returned fsynced, so it
   is a barrier: its states replace the list.  A failed attempt may
   have passed its commit point, so its states join the list.  [fp] is
   a state's byte-exact fingerprint, known while no shard is demoted. *)

type cand = {
  state : state;
  fp : string option;
}

(* What a stabilise leaves on disk: [live] on the shards that took part,
   [prev] on the rest.  Keys live on one shard each: roots and blobs by
   name, fields with their object. *)
let persisted ~count ~took_part (prev : state) (live : state) : state =
  let shard_of = function
    | Root k | Blob k -> Manifest.shard_of_key ~count k
    | Field (oid, _) -> Manifest.shard_of_oid ~count oid
  in
  collect (State.merge (fun k p l -> if took_part.(shard_of k) then l else p) prev live)

(* -- snapshot isolation ----------------------------------------------------

   A session reads its snapshot under its own overlay.  Conflicts are
   judged per unit, a root or blob name or a whole object: a commit loses
   on every unit it wrote that a direct write or another commit wrote
   after the session opened. *)

type unit_ =
  | Key of string
  | Obj of Oid.t

let unit_of = function
  | Root k | Blob k -> Key k
  | Field (oid, _) -> Obj oid

type session = {
  snap : state;
  mutable over : value option State.t;  (* [None]: removed *)
  mutable touched : unit_ list;  (* written by others since the open *)
}

let view s = State.merge (fun _ snap over -> Option.value over ~default:snap) s.snap s.over

(* The units a commit of [s] loses on, as the store reports them (oids
   ascending, names sorted). *)
let conflicts s =
  State.fold (fun k _ acc -> unit_of k :: acc) s.over []
  |> List.filter (fun u -> List.mem u s.touched)
  |> List.sort_uniq compare
  |> List.partition_map (function Obj o -> Either.Left o | Key k -> Either.Right k)
