(* Binary encoding primitives shared by the store image format and the
   MiniJava class-file format.  Little-endian, length-prefixed strings. *)

type writer = Buffer.t

type reader = {
  data : string;
  mutable pos : int;
  lim : int;  (* reading stops here: [String.length data] or a prefix *)
}

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let writer () = Buffer.create 4096

let contents w = Buffer.contents w

let reset w = Buffer.clear w

let reader data = { data; pos = 0; lim = String.length data }

let prefix_reader data len =
  if len < 0 || len > String.length data then invalid_arg "Codec.prefix_reader";
  { data; pos = 0; lim = len }

let remaining r = r.lim - r.pos

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
  if r.pos >= r.lim then decode_error "get_u8: end of input";
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

(* Slicing-by-8: table [k] (entries [256k .. 256k+255]) advances a byte
   through [k] further zero bytes, so the main loop folds eight input
   bytes per step with eight lookups.  The state is an immediate [int]
   holding 32 bits, so the loop allocates nothing. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- (c lsr 8) lxor t.(c land 0xff)
  done;
  t

let[@inline] tbl k i = Array.unsafe_get crc_tables ((k lsl 8) lor i)
let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let crc_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.crc32_sub";
  let c = ref 0xffffffff in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo =
      !c
      lxor (byte b j lor (byte b (j + 1) lsl 8) lor (byte b (j + 2) lsl 16)
           lor (byte b (j + 3) lsl 24))
    in
    c :=
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (byte b (j + 4))
      lxor tbl 2 (byte b (j + 5))
      lxor tbl 1 (byte b (j + 6))
      lxor tbl 0 (byte b (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tbl 0 ((!c lxor byte b j) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

let crc32_sub s ~pos ~len = crc_bytes (Bytes.unsafe_of_string s) ~pos ~len

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

(* The writer's bytes followed by their CRC-32 (little-endian), built in
   one copy. *)
let contents_with_crc w =
  let n = Buffer.length w in
  let b = Bytes.create (n + 4) in
  Buffer.blit w 0 b 0 n;
  Bytes.set_int32_le b n (crc_bytes b ~pos:0 ~len:n);
  Bytes.unsafe_to_string b

(* -- checksummed frames ---------------------------------------------------

   The framing shared by per-object image records and write-ahead journal
   records: [int length][u32 crc32(payload)][payload].  Length lets a
   reader skip a frame whose payload it cannot decode; the checksum lets
   it tell silent corruption apart from a format change. *)

let put_frame w payload =
  put_int w (String.length payload);
  put_i32 w (crc32 payload);
  put_bytes w payload

let read_frame r =
  let len = get_int r in
  if len < 0 || len > remaining r then
    decode_error "frame length %d exceeds %d remaining bytes" len (remaining r);
  let stored = get_i32 r in
  (stored, get_bytes r len)

(* Read a frame, verifying its checksum.  On a checksum mismatch the
   reader is still advanced past the frame, so salvage loops can report
   the bad frame and continue with the next one. *)
let checked_frame r =
  let stored, payload = read_frame r in
  let actual = crc32 payload in
  if Int32.equal stored actual then Ok payload
  else Error (Printf.sprintf "frame checksum mismatch: stored %ld, computed %ld" stored actual)

let get_frame r =
  match checked_frame r with
  | Ok payload -> payload
  | Error msg -> decode_error "%s" msg

let trusted_frame r = snd (read_frame r)

(* The lenient scan behind journal and marker recovery: a crash
   mid-append leaves a frame whose length runs past end-of-file or whose
   checksum does not match, and the scan simply stops there.  Nothing
   before the torn frame is affected. *)
let scan_frames data ~pos decode =
  let rec go pos acc =
    let r = { data; pos; lim = String.length data } in
    if remaining r < 8 then (List.rev acc, pos, not (at_end r))
    else
      match Result.map decode (checked_frame r) with
      | Ok v -> go r.pos ((v, r.pos) :: acc)
      | Error _ | (exception Decode_error _) -> (List.rev acc, pos, true)
  in
  go pos []
