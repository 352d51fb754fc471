(* The unified typed failure for salvage reads: one variant shared by
   Store.Session.try_get / try_field and the registry's try_get_link, so the
   layers above degrade broken links with a single match. *)

type t =
  | Quarantined of {
      oid : Oid.t;
      reason : string;
    }
  | Dangling of Oid.t
  | Collected of int
  | Bad_index of {
      container : string;
      index : int;
    }

(* Raised (not returned): a write routed to a shard that is degraded or
   offline.  An exception rather than a [t] constructor because writes
   have no [try_]-style result channel — the typed raise is the
   contract, and callers match on it to keep serving the other
   shards. *)
exception Shard_degraded of {
  shard : int;
  state : string; (* "degraded" | "offline" *)
  reason : string;
}

(* Raised by [Store.Session.commit]: first-committer-wins detection
   found that another commit (or a direct default-session write)
   touched part of this session's write set after its snapshot was
   pinned.  Carries the clashing oids and root/blob keys so the caller
   can open a fresh session and retry just the disputed work.  The
   losing session is aborted — none of its buffered ops reached the
   heap or the journal. *)
exception Commit_conflict of {
  session : int; (* losing session id *)
  oids : Oid.t list; (* clashing object ids, ascending *)
  keys : string list; (* clashing root/blob names, sorted *)
}

let () =
  Printexc.register_printer (function
    | Shard_degraded { shard; state; reason } ->
      Some (Printf.sprintf "Failure.Shard_degraded(shard %d %s: %s)" shard state reason)
    | Commit_conflict { session; oids; keys } ->
      let oid_part =
        if oids = [] then ""
        else
          Printf.sprintf " oids [%s]"
            (String.concat "; " (List.map (fun o -> Format.asprintf "%a" Oid.pp o) oids))
      in
      let key_part =
        if keys = [] then ""
        else Printf.sprintf " keys [%s]" (String.concat "; " keys)
      in
      Some (Printf.sprintf "Failure.Commit_conflict(session %d:%s%s)" session oid_part key_part)
    | _ -> None)

let pp ppf = function
  | Quarantined { oid; reason } ->
    Format.fprintf ppf "quarantined %a: %s" Oid.pp oid reason
  | Dangling oid -> Format.fprintf ppf "dangling reference %a" Oid.pp oid
  | Collected uid ->
    Format.fprintf ppf "hyper-program %d has been garbage collected" uid
  | Bad_index { container; index } ->
    Format.fprintf ppf "no index %d in %s" index container

let describe t = Format.asprintf "%a" pp t
