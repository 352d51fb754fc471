(* Store layout: the manifest file, shard file naming, oid/key hashing,
   and the store-level commit marker.

   The store runs one code path for every shard count; the decisions
   that depend on the count are made here.  A store of several shards
   replaces the single image at [path] with a small manifest naming the
   shard count and the current epoch of every shard image.  Shard files
   live next to it:

     path             the manifest (magic "HPJMANIF")
     path.s<k>.<e>    shard [k]'s image at epoch [e]
     path.s<k>.<e>.wal   its journal
     path.marker.<m>  the commit marker

   Epochs make image replacement atomic without renaming over live
   files: a compaction writes the new images at epoch [e+1], then
   atomically renames the manifest — the single commit point — and only
   then deletes the stale epoch's files.  A crash before the rename
   leaves the old manifest naming the old (complete) files.

   The marker is the cross-shard commit point for journalled batches:
   each stabilise appends its batch to every dirty shard journal stamped
   with one store-level sequence number, and the sequence is committed
   only once a marker record carrying it is fsynced AFTER those journal
   fsyncs.  Recovery replays per-shard batches only up to the marker's
   last sequence, so a crash between per-shard appends rolls the whole
   stabilise back.  Compactions that rewrite every shard rotate to a
   fresh marker file (sequence numbers restart at 0).

   One shard keeps the flat names: the image at [path], the journal at
   [Journal.path_for path].  Its image rename is the commit point of a
   compaction, and its journal needs no marker — one batch frame is
   already atomic. *)

let magic = "HPJMANIF"

type t = {
  nshards : int;
  marker_epoch : int;  (* -1: no marker yet (one shard, or a legacy pre-journal manifest) *)
  epochs : int array;  (* current image epoch per shard *)
}

(* -- hashing -------------------------------------------------------------- *)

(* Knuth multiplicative hash: consecutive oids (allocation order) spread
   evenly instead of striping, so one session's objects don't all land
   in one shard. *)
let shard_of_oid ~count oid =
  if count <= 1 then 0 else Oid.to_int oid * 2654435761 land max_int mod count

let shard_of_key ~count key =
  if count <= 1 then 0 else Hashtbl.hash key mod count

(* -- file naming ---------------------------------------------------------- *)

let shard_image path k e = Printf.sprintf "%s.s%d.%d" path k e
let shard_wal path k e = shard_image path k e ^ ".wal"
let marker_path path m = Printf.sprintf "%s.marker.%d" path m
let image_file ~count path k e = if count <= 1 then path else shard_image path k e
let wal_file ~count path k e = if count <= 1 then Journal.path_for path else shard_wal path k e
let gated ~count = count > 1

(* -- manifest I/O --------------------------------------------------------- *)

let encode m =
  let open Codec in
  let w = writer () in
  put_bytes w magic;
  let body =
    let b = writer () in
    put_u8 b 1 (* version *);
    put_int b m.nshards;
    put_int b m.marker_epoch;
    put_list b put_int (Array.to_list m.epochs);
    contents b
  in
  put_frame w body;
  contents w

let decode data =
  let open Codec in
  if
    String.length data < String.length magic
    || not (String.equal (String.sub data 0 (String.length magic)) magic)
  then decode_error "Manifest: bad magic"
  else begin
    let r = reader (String.sub data (String.length magic) (String.length data - String.length magic)) in
    let body = reader (get_frame r) in
    (match get_u8 body with
    | 1 -> ()
    | v -> decode_error "Manifest: unsupported version %d" v);
    let nshards = get_int body in
    let marker_epoch = get_int body in
    let epochs = Array.of_list (get_list body get_int) in
    if nshards < 1 || Array.length epochs <> nshards then
      decode_error "Manifest: inconsistent shard count";
    { nshards; marker_epoch; epochs }
  end

(* The rename inside [Faults.replace_file] IS the sharded store's commit
   point. *)
let save path m = Faults.replace_file path (encode m)

(* Is the file at [path] a shard manifest (vs a flat image)? *)
let is_manifest path =
  (not (Sys.file_exists path))
  |> function
  | true -> false
  | false -> (
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try String.equal (really_input_string ic (String.length magic)) magic
        with End_of_file -> false))

let load path = decode (Faults.read_file path)

let layout path =
  if is_manifest path then load path else { nshards = 1; marker_epoch = -1; epochs = [| 0 |] }

let commit path m = if gated ~count:m.nshards then save path m

(* Best-effort removal of files from superseded epochs / markers.  Stale
   files are harmless (nothing references them), so errors are ignored. *)
let cleanup_stale path m =
  if gated ~count:m.nshards then begin
    let dir = Filename.dirname path in
    let base = Filename.basename path in
    let keep = Hashtbl.create 16 in
    Array.iteri
      (fun k e ->
        Hashtbl.replace keep (Filename.basename (shard_image path k e)) ();
        Hashtbl.replace keep (Filename.basename (shard_wal path k e)) ())
      m.epochs;
    if m.marker_epoch >= 0 then
      Hashtbl.replace keep (Filename.basename (marker_path path m.marker_epoch)) ();
    let is_shard_file name =
      (* base ^ ".s<k>.<e>"[".wal"] or base ^ ".marker.<m>" *)
      String.length name > String.length base
      && String.sub name 0 (String.length base) = base
      && (let rest = String.sub name (String.length base) (String.length name - String.length base) in
          let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
          match String.split_on_char '.' rest with
          | [ ""; s; e ] when String.length s > 1 && s.[0] = 's' ->
            is_digits (String.sub s 1 (String.length s - 1)) && is_digits e
          | [ ""; s; e; "wal" ] when String.length s > 1 && s.[0] = 's' ->
            is_digits (String.sub s 1 (String.length s - 1)) && is_digits e
          | [ ""; "marker"; m ] -> is_digits m
          | _ -> false)
    in
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          if is_shard_file name && not (Hashtbl.mem keep name) then
            try Faults.remove (Filename.concat dir name) with Sys_error _ -> ())
        names
  end

(* -- commit marker -------------------------------------------------------- *)

module Marker = struct
  let magic = "HPJMARK1"

  type t = Faults.log

  let create path = Faults.create_log path ~header:magic

  let append t seq =
    let w = Codec.writer () in
    Codec.put_i64 w (Int64.of_int seq);
    Faults.append_frame t (Codec.contents w)

  type replay = {
    committed : int;  (* last good sequence number; 0 if none *)
    valid_bytes : int;
  }

  (* Lenient, like journal recovery: stop at the first torn record. *)
  let read path =
    if not (Sys.file_exists path) then None
    else begin
      let data = Faults.read_file path in
      if not (String.starts_with ~prefix:magic data) then None
      else begin
        let seqs, valid_bytes, _torn =
          Codec.scan_frames data ~pos:(String.length magic) (fun payload ->
              Int64.to_int (Codec.get_i64 (Codec.reader payload)))
        in
        let committed = List.fold_left (fun _ (seq, _) -> seq) 0 seqs in
        Some { committed; valid_bytes }
      end
    end

  let open_for_append path ~valid_bytes = Faults.reopen_log path ~valid_bytes
end
