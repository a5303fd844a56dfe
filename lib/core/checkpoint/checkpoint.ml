module Obs = Wampde_obs

let c_saves = Obs.Metrics.counter "checkpoint.saves"
let c_loads = Obs.Metrics.counter "checkpoint.loads"
let g_bytes = Obs.Metrics.gauge "checkpoint.bytes"

type section =
  | Scalar of float
  | Text of string
  | Vector of float array
  | Matrix of float array array
  | Tensor of float array array array

type t = (string * section) list

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Checkpoint.Corrupt: %s" msg)
    | _ -> None)

let magic = "WAMPDECP"
let format_version = 1

(* ---------- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           let lsb = Int32.logand !c 1l in
           c := Int32.shift_right_logical !c 1;
           if lsb = 1l then c := Int32.logxor !c 0xEDB88320l
         done;
         !c))

let crc32 bytes =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  Bytes.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor (Int32.shift_right_logical !c 8) table.(idx))
    bytes;
  Int32.logxor !c 0xFFFFFFFFl

(* ---------- encoding ---------- *)

let tag_of = function
  | Scalar _ -> 0
  | Text _ -> 1
  | Vector _ -> 2
  | Matrix _ -> 3
  | Tensor _ -> 4

let add_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)
let add_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_vector buf a =
  add_u32 buf (Array.length a);
  Array.iter (add_f64 buf) a

let add_matrix buf m =
  add_u32 buf (Array.length m);
  Array.iter (add_vector buf) m

let encode sections =
  let buf = Buffer.create 4096 in
  add_u32 buf (List.length sections);
  List.iter
    (fun (name, section) ->
      add_string buf name;
      Buffer.add_char buf (Char.chr (tag_of section));
      match section with
      | Scalar v -> add_f64 buf v
      | Text s -> add_string buf s
      | Vector a -> add_vector buf a
      | Matrix m -> add_matrix buf m
      | Tensor t ->
        add_u32 buf (Array.length t);
        Array.iter (add_matrix buf) t)
    sections;
  Buffer.to_bytes buf

(* ---------- decoding ---------- *)

type cursor = { data : Bytes.t; mutable pos : int }

let need cur n what =
  if cur.pos + n > Bytes.length cur.data then
    raise (Corrupt (Printf.sprintf "truncated payload reading %s" what))

let get_u32 cur what =
  need cur 4 what;
  let v = Int32.to_int (Bytes.get_int32_le cur.data cur.pos) in
  cur.pos <- cur.pos + 4;
  if v < 0 then raise (Corrupt (Printf.sprintf "negative length for %s" what));
  v

let get_f64 cur what =
  need cur 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_le cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_string cur what =
  let n = get_u32 cur what in
  need cur n what;
  let s = Bytes.sub_string cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_vector cur what =
  let n = get_u32 cur what in
  Array.init n (fun _ -> get_f64 cur what)

let get_matrix cur what =
  let n = get_u32 cur what in
  Array.init n (fun _ -> get_vector cur what)

let decode data =
  let cur = { data; pos = 0 } in
  let count = get_u32 cur "section count" in
  let sections =
    List.init count (fun _ ->
        let name = get_string cur "section name" in
        need cur 1 name;
        let tag = Char.code (Bytes.get cur.data cur.pos) in
        cur.pos <- cur.pos + 1;
        let section =
          match tag with
          | 0 -> Scalar (get_f64 cur name)
          | 1 -> Text (get_string cur name)
          | 2 -> Vector (get_vector cur name)
          | 3 -> Matrix (get_matrix cur name)
          | 4 ->
            let k = get_u32 cur name in
            Tensor (Array.init k (fun _ -> get_matrix cur name))
          | t -> raise (Corrupt (Printf.sprintf "unknown section tag %d for %S" t name))
        in
        (name, section))
  in
  if cur.pos <> Bytes.length data then raise (Corrupt "trailing bytes after last section");
  sections

(* ---------- file I/O ---------- *)

let save ~path sections =
  Obs.Span.span ~attrs:[ ("path", Obs.Span.Str path) ] "checkpoint.save" @@ fun () ->
  let payload = encode sections in
  let crc = crc32 payload in
  (* fault injection: write only half the payload while keeping the
     full payload's CRC, emulating a torn write that slipped past the
     atomic rename (e.g. a lying disk); [load] must flag it as Corrupt *)
  let payload =
    if Fault.armed () && Fault.fire Fault.Checkpoint_trunc then
      Bytes.sub payload 0 (Bytes.length payload / 2)
    else payload
  in
  let header = Buffer.create 24 in
  Buffer.add_string header magic;
  add_u32 header format_version;
  Buffer.add_int64_le header (Int64.of_int (Bytes.length payload));
  Buffer.add_int32_le header crc;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc header;
      output_bytes oc payload);
  Sys.rename tmp path;
  Obs.Metrics.incr c_saves;
  Obs.Metrics.set g_bytes (float_of_int (Buffer.length header + Bytes.length payload))

let load ~path =
  Obs.Span.span ~attrs:[ ("path", Obs.Span.Str path) ] "checkpoint.load" @@ fun () ->
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Corrupt (Printf.sprintf "cannot open checkpoint: %s" msg))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let read_exactly n what =
        let b = Bytes.create n in
        (try really_input ic b 0 n
         with End_of_file -> raise (Corrupt (Printf.sprintf "truncated header reading %s" what)));
        b
      in
      let m = Bytes.to_string (read_exactly (String.length magic) "magic") in
      if m <> magic then raise (Corrupt (Printf.sprintf "bad magic %S (not a checkpoint?)" m));
      let version = Int32.to_int (Bytes.get_int32_le (read_exactly 4 "version") 0) in
      if version <> format_version then
        raise
          (Corrupt
             (Printf.sprintf "format version %d unsupported (this build reads %d)" version
                format_version));
      let len = Int64.to_int (Bytes.get_int64_le (read_exactly 8 "payload length") 0) in
      if len < 0 || len > Sys.max_string_length then raise (Corrupt "implausible payload length");
      let crc_expect = Bytes.get_int32_le (read_exactly 4 "crc") 0 in
      let payload = read_exactly len "payload" in
      (try
         let extra = input_char ic in
         ignore extra;
         raise (Corrupt "trailing bytes after payload")
       with End_of_file -> ());
      let crc = crc32 payload in
      if crc <> crc_expect then
        raise
          (Corrupt
             (Printf.sprintf "CRC mismatch: file says %08lx, payload hashes to %08lx" crc_expect
                crc));
      let sections = decode payload in
      Obs.Metrics.incr c_loads;
      sections)

(* ---------- accessors ---------- *)

let kind_name = function
  | Scalar _ -> "scalar"
  | Text _ -> "text"
  | Vector _ -> "vector"
  | Matrix _ -> "matrix"
  | Tensor _ -> "tensor"

let find sections name what =
  match List.assoc_opt name sections with
  | Some s -> s
  | None -> raise (Corrupt (Printf.sprintf "missing %s section %S" what name))

let mistyped name want got =
  raise (Corrupt (Printf.sprintf "section %S is a %s, expected a %s" name (kind_name got) want))

let scalar t name =
  match find t name "scalar" with Scalar v -> v | s -> mistyped name "scalar" s

let text t name = match find t name "text" with Text s -> s | s -> mistyped name "text" s

let vector t name =
  match find t name "vector" with Vector a -> a | s -> mistyped name "vector" s

let matrix t name =
  match find t name "matrix" with Matrix m -> m | s -> mistyped name "matrix" s

let tensor t name =
  match find t name "tensor" with Tensor x -> x | s -> mistyped name "tensor" s

