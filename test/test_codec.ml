(* Codec: binary primitives, round trips, CRC-32, error handling. *)

open Pstore
open Helpers

let roundtrip_ints () =
  let w = Codec.writer () in
  Codec.put_i32 w 0l;
  Codec.put_i32 w Int32.min_int;
  Codec.put_i32 w Int32.max_int;
  Codec.put_i32 w (-1l);
  Codec.put_i64 w Int64.min_int;
  Codec.put_i64 w Int64.max_int;
  Codec.put_i64 w 0x0102030405060708L;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int32) "zero" 0l (Codec.get_i32 r);
  Alcotest.(check int32) "min" Int32.min_int (Codec.get_i32 r);
  Alcotest.(check int32) "max" Int32.max_int (Codec.get_i32 r);
  Alcotest.(check int32) "-1" (-1l) (Codec.get_i32 r);
  Alcotest.(check int64) "min64" Int64.min_int (Codec.get_i64 r);
  Alcotest.(check int64) "max64" Int64.max_int (Codec.get_i64 r);
  Alcotest.(check int64) "bytes" 0x0102030405060708L (Codec.get_i64 r);
  check_bool "exhausted" true (Codec.at_end r)

let roundtrip_strings () =
  let w = Codec.writer () in
  Codec.put_string w "";
  Codec.put_string w "hello";
  Codec.put_string w (String.make 10000 'x');
  Codec.put_string w "embedded \x00 nul";
  let r = Codec.reader (Codec.contents w) in
  check_output "empty" "" (Codec.get_string r);
  check_output "hello" "hello" (Codec.get_string r);
  check_int "long" 10000 (String.length (Codec.get_string r));
  check_output "nul" "embedded \x00 nul" (Codec.get_string r)

let roundtrip_floats () =
  let w = Codec.writer () in
  List.iter (Codec.put_f64 w) [ 0.; -0.; 1.5; Float.max_float; Float.min_float; infinity; neg_infinity ];
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun expected -> Alcotest.(check (float 0.)) "f64" expected (Codec.get_f64 r))
    [ 0.; -0.; 1.5; Float.max_float; Float.min_float; infinity; neg_infinity ];
  (* NaN round-trips bit-exactly. *)
  let w2 = Codec.writer () in
  Codec.put_f64 w2 Float.nan;
  let r2 = Codec.reader (Codec.contents w2) in
  check_bool "nan" true (Float.is_nan (Codec.get_f64 r2))

let roundtrip_containers () =
  let w = Codec.writer () in
  Codec.put_list w Codec.put_int [ 1; 2; 3 ];
  Codec.put_array w Codec.put_string [| "a"; "b" |];
  Codec.put_option w Codec.put_int None;
  Codec.put_option w Codec.put_int (Some 42);
  Codec.put_bool w true;
  Codec.put_bool w false;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.get_list r Codec.get_int);
  Alcotest.(check (array string)) "array" [| "a"; "b" |] (Codec.get_array r Codec.get_string);
  Alcotest.(check (option int)) "none" None (Codec.get_option r Codec.get_int);
  Alcotest.(check (option int)) "some" (Some 42) (Codec.get_option r Codec.get_int);
  check_bool "true" true (Codec.get_bool r);
  check_bool "false" false (Codec.get_bool r)

let truncated_input_fails () =
  let w = Codec.writer () in
  Codec.put_i64 w 1L;
  let data = Codec.contents w in
  let r = Codec.reader (String.sub data 0 4) in
  (match Codec.get_i64 r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ());
  let r2 = Codec.reader "\xff\xff\xff\x7f" in
  (match Codec.get_string r2 with
  | _ -> Alcotest.fail "expected decode error on oversized string length"
  | exception Codec.Decode_error _ -> ())

let bad_bool_fails () =
  let r = Codec.reader "\x07" in
  match Codec.get_bool r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ()

let crc32_known_values () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "vector" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "");
  check_bool "differs" true (Codec.crc32 "a" <> Codec.crc32 "b")

(* A plain bitwise CRC-32: the reference the table-driven loop must equal. *)
let crc32_reference s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xffffffff)

(* Lengths 0..64 at start offsets 0..7 cover the 8-byte body, the
   bytewise tail and every split between them. *)
let crc32_matches_bitwise_reference () =
  let rng = Random.State.make [| 30 |] in
  let random_string n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let buf = random_string (64 + 7) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      let expected = crc32_reference (String.sub buf pos len) in
      let name = Printf.sprintf "pos %d len %d" pos len in
      Alcotest.(check int32) name expected (Codec.crc32 (String.sub buf pos len));
      Alcotest.(check int32) (name ^ " sub") expected (Codec.crc32_sub buf ~pos ~len)
    done
  done;
  for i = 1 to 200 do
    let s = random_string (Random.State.int rng 4097) in
    Alcotest.(check int32) (Printf.sprintf "random %d" i) (crc32_reference s) (Codec.crc32 s)
  done

let minor_words f =
  let before = Stdlib.Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Stdlib.Gc.minor_words () -. before

(* Allocation counts do not depend on the host.  A checksum loop over
   boxed state allocates words per byte checked (a fresh boot image took
   over 3 million minor words to decode that way), so these bounds catch
   one coming back where a timing could not. *)
let checksum_allocation_bounds () =
  let s = String.make (64 * 1024) 'x' in
  let crc_words = minor_words (fun () -> Codec.crc32 s) in
  if crc_words > 16. then Alcotest.failf "crc32 of 64 KiB allocated %.0f minor words" crc_words;
  let store, _vm = fresh_vm () in
  let data = Image.encode (Store.contents store) in
  let decode_words = minor_words (fun () -> Image.decode data) in
  if decode_words > 20_000. then
    Alcotest.failf "decode of a %d-byte boot image allocated %.0f minor words"
      (String.length data) decode_words

(* Heap entries are encoded through one reused buffer.  A fresh 4 KiB
   buffer per entry lands in the major heap directly: 3,000 short strings
   took about 1.6 million major words for a 95 kB image that way, and
   reusing one takes under 45,000. *)
let encode_allocation_bound () =
  let store = Store.create () in
  for i = 1 to 3_000 do
    ignore (Store.Session.alloc_string (Store.default_session store) (Printf.sprintf "string %d" i))
  done;
  let contents = Store.contents store in
  let size = String.length (Image.encode contents) in
  let major_words () =
    let _, _, major = Stdlib.Gc.counters () in
    major
  in
  let before = major_words () in
  ignore (Sys.opaque_identity (Image.encode contents));
  let words = major_words () -. before in
  if words > 3. *. float_of_int size then
    Alcotest.failf "encode of a %d-byte image allocated %.0f major words" size words

(* Every strict prefix of an encoded value must fail with Decode_error —
   never an unhandled exception, never a silently wrong value. *)
let pvalue_truncation_at_every_offset () =
  let samples =
    [
      Pvalue.Null;
      Pvalue.Bool true;
      Pvalue.byte (-5);
      Pvalue.short 300;
      Pvalue.char 0xFFFF;
      Pvalue.Int Int32.min_int;
      Pvalue.Long 0x0102030405060708L;
      Pvalue.Float 1.5;
      Pvalue.Double (-0.25);
      Pvalue.Ref (Pstore.Oid.of_int 123456);
    ]
  in
  List.iter
    (fun v ->
      let w = Codec.writer () in
      Pvalue.encode w v;
      let data = Codec.contents w in
      for len = 0 to String.length data - 1 do
        match Pvalue.decode (Codec.reader (String.sub data 0 len)) with
        | v' ->
          Alcotest.failf "prefix %d of %s decoded as %s" len (Pvalue.to_string v)
            (Pvalue.to_string v')
        | exception Codec.Decode_error _ -> ()
      done;
      check_bool "full data decodes" true
        (Pvalue.equal v (Pvalue.decode (Codec.reader data))))
    samples

(* The same property for a whole image, updated for the v2 salvage
   loader: any truncation still fails outright, and any single-bit
   corruption is either fatal (header, framing, tail) or localised —
   decode succeeds with at least one object quarantined.  No flip goes
   silently unnoticed. *)
let image_truncation_and_corruption () =
  let store = fresh_store () in
  let s = Store.Session.alloc_string (Store.default_session store) "payload" in
  let r = Store.Session.alloc_record (Store.default_session store) "C" [| Pvalue.Ref s; Pvalue.Int 7l |] in
  Store.Session.set_root (Store.default_session store) "r" (Pvalue.Ref r);
  Store.Session.set_blob (Store.default_session store) "b" "blob";
  let data = Image.encode (Store.contents store) in
  for len = 0 to String.length data - 1 do
    match Image.decode (String.sub data 0 len) with
    | _ -> Alcotest.failf "truncation to %d bytes decoded" len
    | exception (Image.Image_error _ | Codec.Decode_error _) -> ()
  done;
  for off = 0 to String.length data - 1 do
    let corrupt = Bytes.of_string data in
    Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x01));
    match Image.decode (Bytes.unsafe_to_string corrupt) with
    | salvaged ->
      if Quarantine.is_empty salvaged.Image.quarantine then
        Alcotest.failf "bit flip at offset %d went undetected" off
    | exception (Image.Image_error _ | Codec.Decode_error _) -> ()
  done;
  ignore (Image.decode data)

(* Salvage precision: a flip inside one entry's payload quarantines
   exactly that object and nothing else; the rest of the image (sibling
   objects, roots, blobs) loads intact. *)
let image_salvage_is_precise () =
  let store = fresh_store () in
  let victim = Store.Session.alloc_string (Store.default_session store) "sentinel-victim-payload" in
  let sibling = Store.Session.alloc_string (Store.default_session store) "sibling" in
  Store.Session.set_root (Store.default_session store) "sib" (Pvalue.Ref sibling);
  Store.Session.set_blob (Store.default_session store) "b" "blob";
  let data = Image.encode (Store.contents store) in
  let needle = "sentinel-victim-payload" in
  let off =
    let rec find i =
      if i + String.length needle > String.length data then
        Alcotest.fail "sentinel not found in image"
      else if String.equal (String.sub data i (String.length needle)) needle then i
      else find (i + 1)
    in
    find 0
  in
  let corrupt = Bytes.of_string data in
  Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0xff));
  let salvaged = Image.decode (Bytes.unsafe_to_string corrupt) in
  check_int "exactly one quarantined" 1 (Quarantine.size salvaged.Image.quarantine);
  check_bool "victim quarantined" true (Quarantine.mem salvaged.Image.quarantine victim);
  (match Heap.find salvaged.Image.heap sibling with
  | Some (Heap.Str s) -> check_output "sibling intact" "sibling" s
  | _ -> Alcotest.fail "sibling lost in salvage");
  check_bool "root intact" true
    (match Roots.find salvaged.Image.roots "sib" with
    | Some (Pvalue.Ref oid) -> Oid.equal oid sibling
    | _ -> false);
  check_bool "blob intact" true (Hashtbl.find_opt salvaged.Image.blobs "b" = Some "blob")

(* What a damaged image loads as, one region at a time.  Whether a clean
   load re-hashes each frame is a speed choice; these outcomes are not. *)
let image_damage_by_region () =
  with_dir (fun dir ->
      let store = fresh_store () in
      let victim = Store.Session.alloc_string (Store.default_session store) "victim-payload" in
      let sibling = Store.Session.alloc_string (Store.default_session store) "sibling" in
      Store.Session.set_root (Store.default_session store) "r" (Pvalue.Ref (Store.Session.alloc_record (Store.default_session store) "C" [| Pvalue.Ref sibling |]));
      Store.Session.set_blob (Store.default_session store) "b" "blob";
      let path = Filename.concat dir "image" in
      ignore (Image.save ~obs:(Obs.create ()) path (Store.contents store));
      let data = read_file path in
      (* Header: magic, version, next oid, entry count.  Then each entry
         is [i64 oid][u32 len][u32 crc][payload]; then the tail frame
         [u32 len][u32 crc][payload]; then the 4-byte trailer. *)
      let header_len = 8 + 1 + 8 + 4 in
      let frame_end off = off + 8 + Int32.to_int (String.get_int32_le data off) in
      let rec entries off n acc =
        if n = 0 then (List.rev acc, off)
        else
          let oid = Oid.of_int (Int64.to_int (String.get_int64_le data off)) in
          entries (frame_end (off + 8)) (n - 1) ((oid, off) :: acc)
      in
      let entry_offsets, tail_off =
        entries header_len (Int32.to_int (String.get_int32_le data (header_len - 4))) []
      in
      let victim_off = List.assoc victim entry_offsets in
      let cases =
        [
          ("header", 0, 0xff, None);
          (* A huge oid that collides with no other. *)
          ("oid high byte", victim_off + 7, 0x01, None);
          (* Bit 62: the oid decodes as a negative int. *)
          ("oid sign bit", victim_off + 7, 0x40, None);
          ("entry payload", index_of data "victim-payload" + 3, 0xff, Some victim);
          ("tail frame", tail_off + 8 + 2, 0xff, None);
          ("trailer", String.length data - 2, 0xff, None);
        ]
      in
      List.iter
        (fun (region, off, mask, expected) ->
          let corrupt = Bytes.of_string data in
          Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor mask));
          write_file path (Bytes.to_string corrupt);
          match (Image.load_report ~obs:(Obs.create ()) path, expected) with
          | report, Some oid ->
            let q = report.Image.lr_contents.Image.quarantine in
            check_int (region ^ ": salvaged") 1 report.Image.lr_salvaged;
            check_int (region ^ ": quarantined") 1 (Quarantine.size q);
            check_bool (region ^ ": victim quarantined") true (Quarantine.mem q oid)
          | _, None -> Alcotest.failf "%s: damaged image loaded" region
          | exception Image.Image_error _ when expected = None -> ())
        cases)

let suite =
  [
    test "integer round trips" roundtrip_ints;
    test "string round trips" roundtrip_strings;
    test "float round trips" roundtrip_floats;
    test "container round trips" roundtrip_containers;
    test "truncated input fails cleanly" truncated_input_fails;
    test "invalid boolean byte fails" bad_bool_fails;
    test "crc32 known values" crc32_known_values;
    test "crc32 equals a bitwise reference" crc32_matches_bitwise_reference;
    test "checksum allocation bounds" checksum_allocation_bounds;
    test "image encode allocation bound" encode_allocation_bound;
    test "pvalue truncation at every offset" pvalue_truncation_at_every_offset;
    test "image truncation and corruption detected" image_truncation_and_corruption;
    test "image salvage is precise" image_salvage_is_precise;
    test "image damage by region" image_damage_by_region;
  ]

(* Property: any sequence of puts reads back identically. *)
let prop_roundtrip =
  let gen =
    QCheck2.Gen.(
      list
        (oneof
           [
             map (fun n -> `I32 n) int32;
             map (fun n -> `I64 n) int64;
             map (fun s -> `Str s) string;
             map (fun b -> `Bool b) bool;
             map (fun n -> `U8 (abs n mod 256)) int;
           ]))
  in
  QCheck2.Test.make ~name:"codec round-trips arbitrary put sequences" ~count:200 gen
    (fun items ->
      let w = Codec.writer () in
      List.iter
        (function
          | `I32 n -> Codec.put_i32 w n
          | `I64 n -> Codec.put_i64 w n
          | `Str s -> Codec.put_string w s
          | `Bool b -> Codec.put_bool w b
          | `U8 n -> Codec.put_u8 w n)
        items;
      let r = Codec.reader (Codec.contents w) in
      List.for_all
        (function
          | `I32 n -> Codec.get_i32 r = n
          | `I64 n -> Codec.get_i64 r = n
          | `Str s -> Codec.get_string r = s
          | `Bool b -> Codec.get_bool r = b
          | `U8 n -> Codec.get_u8 r = n)
        items
      && Codec.at_end r)

(* Property: an arbitrary Pvalue.t survives encode/decode, and every
   strict prefix of its encoding raises Decode_error. *)
let prop_pvalue_roundtrip =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          return Pvalue.Null;
          map (fun b -> Pvalue.Bool b) bool;
          map (fun n -> Pvalue.byte (n mod 128)) int;
          map (fun n -> Pvalue.short (n mod 32768)) int;
          map (fun n -> Pvalue.char (abs (n mod 65536))) int;
          map (fun n -> Pvalue.Int n) int32;
          map (fun n -> Pvalue.Long n) int64;
          map (fun f -> Pvalue.Float (if Float.is_nan f then 0. else f)) float;
          map (fun f -> Pvalue.Double (if Float.is_nan f then 0. else f)) float;
          map (fun n -> Pvalue.Ref (Pstore.Oid.of_int (n land max_int))) int;
        ])
  in
  QCheck2.Test.make ~name:"pvalue encode/decode identity" ~count:500 gen (fun v ->
      let w = Codec.writer () in
      Pvalue.encode w v;
      let data = Codec.contents w in
      let r = Codec.reader data in
      let v' = Pvalue.decode r in
      let prefixes_fail = ref true in
      for len = 0 to String.length data - 1 do
        (match Pvalue.decode (Codec.reader (String.sub data 0 len)) with
        | _ -> prefixes_fail := false
        | exception Codec.Decode_error _ -> ())
      done;
      Pvalue.equal v v' && Codec.at_end r && !prefixes_fail)

let props =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_pvalue_roundtrip;
  ]
