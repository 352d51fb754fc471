(* The quarantine set: oids whose objects are known-corrupt or whose
   storage could not be decoded.  Quarantined objects are isolated, not
   fatal — reads raise the typed {!Quarantined} exception (or return it
   through the [try_]-style accessors) so callers can degrade gracefully,
   and every other object in the store stays readable.

   A quarantined oid may still have a heap entry (in-memory corruption
   detected by the scrubber keeps the suspect entry around for forensics)
   or may have none at all (an image-load salvage drops the undecodable
   payload and records only the oid and reason). *)

exception Quarantined of Oid.t * string

type t = string Oid.Table.t

let create () : t = Oid.Table.create 8

let add t oid reason = Oid.Table.replace t oid reason
let remove t oid = Oid.Table.remove t oid
let find t oid = Oid.Table.find_opt t oid
let mem t oid = Oid.Table.mem t oid
let size t = Oid.Table.length t
let is_empty t = Oid.Table.length t = 0

(* Sorted for deterministic display and serialisation. *)
let to_list t =
  Oid.Table.fold (fun oid reason acc -> (oid, reason) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let replace_all t ~from =
  Oid.Table.reset t;
  Oid.Table.iter (Oid.Table.replace t) from
