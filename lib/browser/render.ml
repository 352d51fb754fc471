(* Text rendering of browser panels (the AWT substitution): each panel
   becomes a box listing its rows, with sharing markers from Graph and
   arrows on rows that can be opened. *)

open Pstore

let pad s n = if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

(* Render one panel.  [shared] marks oids referenced from multiple
   places. *)
let panel ?(shared = Oid.Set.empty) b p =
  let rows = Ocb.rows b p in
  let title = Printf.sprintf "Panel %d: %s" p.Ocb.panel_id (Ocb.entity_title b p.Ocb.entity) in
  let label_width =
    List.fold_left (fun acc r -> max acc (String.length r.Ocb.row_label)) 5 rows
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("+- " ^ title ^ " " ^ String.make (max 1 (56 - String.length title)) '-' ^ "\n");
  List.iteri
    (fun i r ->
      let selected = p.Ocb.selected = Some i in
      let marker =
        match r.Ocb.row_value with
        | Some (Ocb.E_object oid) when Oid.Set.mem oid shared -> " *shared*"
        | _ -> ""
      in
      let arrow = if r.Ocb.row_value <> None then " ->" else "" in
      let loc = if r.Ocb.row_location <> None then " [loc]" else "" in
      Buffer.add_string buf
        (Printf.sprintf "| %s %s : %s%s%s%s\n"
           (if selected then ">" else " ")
           (pad r.Ocb.row_label label_width) r.Ocb.row_display marker loc arrow))
    rows;
  Buffer.add_string buf ("+" ^ String.make 58 '-' ^ "\n");
  Buffer.contents buf

(* Render the whole browser: the four front-most panels, front first. *)
let browser b =
  let shared = Graph.shared_objects (Store.Session.store (Ocb.vm b).Minijava.Rt.session) in
  let visible = List.filteri (fun i _ -> i < 4) (Ocb.panels b) in
  String.concat "\n" (List.map (panel ~shared b) visible)

(* A store census block (class name, instance count). *)
let census store =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "store census:\n";
  List.iter
    (fun (cls, n) -> Buffer.add_string buf (Printf.sprintf "  %6d  %s\n" n cls))
    (Graph.census store);
  (match List.length (Store.quarantined store) with
  | 0 -> ()
  | n -> Buffer.add_string buf (Printf.sprintf "  %6d  <quarantined>\n" n));
  (* Sharded stores append a per-shard breakdown: the census is where an
     operator looks first for a pathologically hot shard. *)
  if Store.shards store > 1 then
    List.iter
      (fun (info : Store.shard_info) ->
        Buffer.add_string buf
          (Printf.sprintf "  shard %d: %d objects, %d quarantined, %d journal bytes\n"
             info.Store.shard info.Store.objects info.Store.quarantined
             info.Store.journal_bytes))
      (Store.shard_info store);
  (* One observability line: total operations this store has served, and
     whether span tracing is currently capturing events. *)
  let obs = Store.obs store in
  Buffer.add_string buf
    (Printf.sprintf "  store ops: %d (tracing %s)\n" (Obs.total obs)
       (if Obs.enabled obs then "on" else "off"));
  Buffer.contents buf
