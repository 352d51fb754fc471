(* Binary encoding primitives shared by the store image format and the
   MiniJava class-file format.  Little-endian, length-prefixed strings. *)

type writer = Buffer.t

type reader = {
  data : string;
  mutable pos : int;
}

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let writer () = Buffer.create 4096

let contents w = Buffer.contents w

let reset w = Buffer.clear w

let reader data = { data; pos = 0 }

let remaining r = String.length r.data - r.pos

let at_end r = remaining r = 0

(* -- writing ------------------------------------------------------------ *)

let put_u8 w n =
  assert (n >= 0 && n < 256);
  Buffer.add_char w (Char.chr n)

let put_bool w b = put_u8 w (if b then 1 else 0)

let put_i32 w (n : int32) =
  Buffer.add_char w (Char.chr (Int32.to_int (Int32.logand n 0xffl)));
  Buffer.add_char w (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical n 8) 0xffl)));
  Buffer.add_char w (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical n 16) 0xffl)));
  Buffer.add_char w (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical n 24) 0xffl)))

let put_int w n = put_i32 w (Int32.of_int n)

let put_i64 w (n : int64) =
  let byte i = Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL)) in
  for i = 0 to 7 do Buffer.add_char w (byte i) done

let put_f64 w f = put_i64 w (Int64.bits_of_float f)

let put_string w s =
  put_int w (String.length s);
  Buffer.add_string w s

let put_list w put_elem xs =
  put_int w (List.length xs);
  List.iter (put_elem w) xs

let put_array w put_elem xs =
  put_int w (Array.length xs);
  Array.iter (put_elem w) xs

let put_option w put_elem = function
  | None -> put_u8 w 0
  | Some x -> put_u8 w 1; put_elem w x

(* -- reading ------------------------------------------------------------ *)

let get_u8 r =
  if r.pos >= String.length r.data then decode_error "get_u8: end of input";
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> decode_error "get_bool: invalid byte %d" n

let get_i32 r =
  let b0 = get_u8 r and b1 = get_u8 r and b2 = get_u8 r and b3 = get_u8 r in
  Int32.logor
    (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
    (Int32.shift_left (Int32.of_int b3) 24)

let get_int r =
  let n = Int32.to_int (get_i32 r) in
  n

let get_i64 r =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (get_u8 r)) (8 * i))
  done;
  !acc

let get_f64 r = Int64.float_of_bits (get_i64 r)

let put_bytes w s = Buffer.add_string w s

let get_bytes r n =
  if n < 0 || n > remaining r then decode_error "get_bytes: bad length %d" n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_string r =
  let n = get_int r in
  if n < 0 || n > remaining r then decode_error "get_string: bad length %d" n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_list r get_elem =
  let n = get_int r in
  if n < 0 then decode_error "get_list: bad length %d" n;
  List.init n (fun _ -> get_elem r)

let get_array r get_elem =
  let n = get_int r in
  if n < 0 then decode_error "get_array: bad length %d" n;
  Array.init n (fun _ -> get_elem r)

let get_option r get_elem =
  match get_u8 r with
  | 0 -> None
  | 1 -> Some (get_elem r)
  | n -> decode_error "get_option: invalid tag %d" n

(* -- CRC-32 (IEEE 802.3 polynomial) -------------------------------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffffl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl) in
      c := Int32.logxor crc_table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xffffffffl

(* -- checksummed frames ---------------------------------------------------

   The framing shared by per-object image records and write-ahead journal
   records: [int length][u32 crc32(payload)][payload].  Length lets a
   reader skip a frame whose payload it cannot decode; the checksum lets
   it tell silent corruption apart from a format change. *)

let put_frame w payload =
  put_int w (String.length payload);
  put_i32 w (crc32 payload);
  put_bytes w payload

(* Read a frame, verifying its checksum.  On a checksum mismatch the
   reader is still advanced past the frame, so salvage loops can report
   the bad frame and continue with the next one. *)
let checked_frame r =
  let len = get_int r in
  if len < 0 || len > remaining r then
    decode_error "frame length %d exceeds %d remaining bytes" len (remaining r);
  let stored = get_i32 r in
  let payload = get_bytes r len in
  let actual = crc32 payload in
  if Int32.equal stored actual then Ok payload
  else Error (Printf.sprintf "frame checksum mismatch: stored %ld, computed %ld" stored actual)

let get_frame r =
  match checked_frame r with
  | Ok payload -> payload
  | Error msg -> decode_error "%s" msg

(* The lenient scan behind journal and marker recovery: a crash
   mid-append leaves a frame whose length runs past end-of-file or whose
   checksum does not match, and the scan simply stops there.  Nothing
   before the torn frame is affected. *)
let scan_frames data ~pos decode =
  let rec go pos acc =
    let r = { data; pos } in
    if remaining r < 8 then (List.rev acc, pos, not (at_end r))
    else
      match Result.map decode (checked_frame r) with
      | Ok v -> go r.pos ((v, r.pos) :: acc)
      | Error _ | (exception Decode_error _) -> (List.rev acc, pos, true)
  in
  go pos []
