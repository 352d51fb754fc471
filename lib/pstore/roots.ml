(* Named persistent roots.  Everything reachable from a root survives
   garbage collection and stabilisation; everything else is reclaimed.
   PJama exposes the same model through its persistent-root API. *)

type t = (string, Pvalue.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let set roots name v = Hashtbl.replace roots name v

let find roots name = Hashtbl.find_opt roots name

let remove roots name = Hashtbl.remove roots name

let iter f roots = Hashtbl.iter f roots

let fold f roots init = Hashtbl.fold f roots init

let ref_oids roots =
  Hashtbl.fold
    (fun _ v acc -> match v with Pvalue.Ref oid -> oid :: acc | _ -> acc)
    roots []

let replace_all (dst : t) ~(from : t) =
  Hashtbl.reset dst;
  Hashtbl.iter (fun name v -> Hashtbl.replace dst name v) from
