module Obs = Wampde_obs

let c_appends = Obs.Metrics.counter "serve.journal.appends"
let c_replayed = Obs.Metrics.counter "serve.journal.replayed"
let c_corrupt_tail = Obs.Metrics.counter "serve.journal.corrupt_tail"

let schema = "wampde.journal/2"

(* a [/1] journal's frames also carry an [attempt] section, always 1,
   which [record_of] does not read *)
let readable_schemas = [ schema; "wampde.journal/1" ]
let file_name = "journal.wj"
let path ~spool = Filename.concat spool file_name

(* Per-record frame: 4-byte magic, u32 LE payload length, u32 LE
   CRC32 (IEEE 802.3, same polynomial as checkpoint files) of the
   payload, then the payload — a [Checkpoint.encode]d section list.
   Append-only; a crash can only damage the final frame, which replay
   detects and drops. *)
let magic = "WJR1"

type state =
  | Accepted of { request : string }
  | Running
  | Checkpointed
  | Preempted
  | Done
  | Error of { kind : string }

type record = { id : string; state : state }

let state_name = function
  | Accepted _ -> "accepted"
  | Running -> "running"
  | Checkpointed -> "checkpointed"
  | Preempted -> "preempted"
  | Done -> "done"
  | Error _ -> "error"

let terminal = function Done | Error _ -> true | _ -> false

(* ---------- section codec ---------- *)

let sections_of (r : record) : Checkpoint.t =
  let extra =
    match r.state with
    | Accepted { request } -> [ ("request", Checkpoint.Text request) ]
    | Error { kind } -> [ ("kind", Checkpoint.Text kind) ]
    | Running | Checkpointed | Preempted | Done -> []
  in
  [
    ("id", Checkpoint.Text r.id);
    ("state", Checkpoint.Text (state_name r.state));
  ]
  @ extra

let record_of (sections : Checkpoint.t) : record =
  let id = Checkpoint.text sections "id" in
  let state =
    match Checkpoint.text sections "state" with
    | "accepted" -> Accepted { request = Checkpoint.text sections "request" }
    | "running" -> Running
    | "checkpointed" -> Checkpointed
    | "preempted" -> Preempted
    | "done" -> Done
    | "error" -> Error { kind = Checkpoint.text sections "kind" }
    | s -> raise (Checkpoint.Corrupt (Printf.sprintf "journal: unknown state %S" s))
  in
  { id; state }

let header_sections : Checkpoint.t =
  [ ("schema", Checkpoint.Text schema); ("version", Checkpoint.Scalar 2.) ]

(* ---------- framing ---------- *)

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let frame sections =
  let payload = Checkpoint.encode sections in
  let crc = Int32.to_int (Checkpoint.crc32 payload) land 0xffffffff in
  let b = Buffer.create (Bytes.length payload + 12) in
  Buffer.add_string b magic;
  put_u32 b (Bytes.length payload);
  put_u32 b crc;
  Buffer.add_bytes b payload;
  Buffer.contents b

(* ---------- append handle ---------- *)

type t = { fd : Unix.file_descr; mutable closed : bool }

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.single_write_substring fd s !written (n - !written)
  done

let append_frame t s =
  (* [Fault.Journal_trunc] emulates a crash mid-append: only a prefix
     of the frame reaches the file, exactly what a power cut after a
     partial write leaves behind. *)
  let s =
    if Fault.fire Fault.Journal_trunc then String.sub s 0 (String.length s - (String.length s / 2))
    else s
  in
  write_all t.fd s

let open_ ~spool =
  let p = path ~spool in
  let fresh = not (Sys.file_exists p) in
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let t = { fd; closed = false } in
  if fresh then write_all fd (frame header_sections);
  t

let append t record =
  if not t.closed then begin
    append_frame t (frame (sections_of record));
    Obs.Metrics.incr c_appends
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ---------- replay ---------- *)

let u32_at s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Walk the frames front to back.  Any framing violation — short
   header, bad magic, truncated payload, CRC mismatch, undecodable
   sections — stops the walk with one warning: everything before the
   damage is intact (frames are append-only), everything after it is
   unreachable anyway because frame boundaries are lost. *)
let replay ~spool =
  let p = path ~spool in
  if not (Sys.file_exists p) then ([], [])
  else begin
    let data = try read_file p with Sys_error m -> raise (Checkpoint.Corrupt m) in
    let n = String.length data in
    let warn = ref [] in
    let records = ref [] in
    let tail fmt =
      Printf.ksprintf
        (fun m ->
          warn := m :: !warn;
          Obs.Metrics.incr c_corrupt_tail)
        fmt
    in
    let rec go off first =
      if off = n then ()
      else if off + 12 > n then tail "journal: truncated frame header at offset %d" off
      else if String.sub data off 4 <> magic then tail "journal: bad frame magic at offset %d" off
      else begin
        let len = u32_at data (off + 4) in
        let crc = u32_at data (off + 8) in
        if off + 12 + len > n then tail "journal: truncated frame payload at offset %d" off
        else begin
          let payload = Bytes.of_string (String.sub data (off + 12) len) in
          if Int32.to_int (Checkpoint.crc32 payload) land 0xffffffff <> crc then
            tail "journal: CRC mismatch at offset %d" off
          else
            match Checkpoint.decode payload with
            | exception Checkpoint.Corrupt m -> tail "journal: %s (offset %d)" m off
            | sections ->
              if first then begin
                match List.assoc_opt "schema" sections with
                | Some (Checkpoint.Text s) when List.mem s readable_schemas ->
                  go (off + 12 + len) false
                | _ -> tail "journal: missing or unknown schema header"
              end
              else begin
                (match record_of sections with
                | r ->
                  records := r :: !records;
                  Obs.Metrics.incr c_replayed
                | exception Checkpoint.Corrupt m -> tail "journal: %s (offset %d)" m off);
                go (off + 12 + len) false
              end
        end
      end
    in
    go 0 true;
    (List.rev !records, List.rev !warn)
  end

(* ---------- reconciliation ---------- *)

type orphan = { id : string; request : string; last : state }

let orphans records =
  let order = ref [] in
  let tbl : (string, orphan) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : record) ->
      match r.state with
      | Accepted { request } ->
        if not (Hashtbl.mem tbl r.id) then order := r.id :: !order;
        Hashtbl.replace tbl r.id { id = r.id; request; last = r.state }
      | state -> (
        match Hashtbl.find_opt tbl r.id with
        | None -> ()  (* transition without an accept: damaged prefix was dropped *)
        | Some o -> Hashtbl.replace tbl r.id { o with last = state }))
    records;
  List.rev !order
  |> List.filter_map (fun id ->
       match Hashtbl.find_opt tbl id with
       | Some o when not (terminal o.last) -> Some o
       | _ -> None)
