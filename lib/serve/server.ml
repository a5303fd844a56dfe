module Obs = Wampde_obs

let c_protocol_errors = Obs.Metrics.counter "serve.protocol_errors"
let c_requests = Obs.Metrics.counter "serve.requests"

type reader = block:bool -> [ `Line of string | `Eof | `Nothing ]

type config = {
  quantum : int;
  spool : string;
  stall_timeout_s : float;
  stop_requested : unit -> bool;
}

let default_config ?(quantum = 8) ?(spool = "wampde-spool") ?(stall_timeout_s = 0.)
    ?(stop_requested = fun () -> false) () =
  { quantum; spool; stall_timeout_s; stop_requested }

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* How the loop ends: [Drain] finishes the queue (shutdown drain:true
   or end of input), [Abort] kills it (drain:false), [Preempt] parks
   it for a restarted daemon (SIGTERM via [stop_requested]). *)
type stop = Drain | Abort | Preempt

let run config ~read ~write ~log =
  Obs.set_enabled true;
  mkdir_p config.spool;
  let sch =
    Scheduler.create ~stall_timeout_s:config.stall_timeout_s ~quantum:config.quantum
      ~spool:config.spool ~emit:write ~log ()
  in
  write (Protocol.hello ~quantum:config.quantum ~jobs:(Par.Pool.jobs ()));
  Scheduler.recover sch;
  let lineno = ref 0 in
  let stop = ref None in
  let check_signal () =
    if !stop = None && config.stop_requested () then begin
      log "serve: termination requested; parking queued jobs";
      stop := Some Preempt
    end
  in
  let handle line =
    incr lineno;
    if String.trim line <> "" then begin
      Obs.Metrics.incr c_requests;
      match Protocol.parse_request line with
      | Error e ->
        Obs.Metrics.incr c_protocol_errors;
        write (Protocol.error_line ~line:!lineno e)
      | Ok (Protocol.Submit job) -> (
        match Scheduler.submit sch ~request:line job with
        | Ok () -> ()
        | Error e ->
          Obs.Metrics.incr c_protocol_errors;
          write (Protocol.error_line ~line:!lineno ~id:job.id e))
      | Ok (Protocol.Cancel id) -> (
        match Scheduler.cancel sch id with
        | Ok () -> ()
        | Error e ->
          Obs.Metrics.incr c_protocol_errors;
          write (Protocol.error_line ~line:!lineno ~id e))
      | Ok Protocol.Metrics ->
        write (Protocol.metrics_line ~final:false ~metrics:(Obs.Metrics.to_json ()))
      | Ok Protocol.Stats ->
        write
          (Protocol.stats_line ~counters:(Obs.Metrics.counters ()) ~gauges:(Obs.Metrics.gauges ()))
      | Ok (Protocol.Shutdown { drain }) -> stop := Some (if drain then Drain else Abort)
    end
  in
  while !stop = None do
    check_signal ();
    (* drain whatever input is already available, then do one slice *)
    let reading = ref true in
    while !reading && !stop = None do
      match read ~block:false with
      | `Line l -> handle l
      | `Eof ->
        stop := Some Drain;
        reading := false
      | `Nothing -> reading := false
    done;
    check_signal ();
    if !stop = None then begin
      match Scheduler.run_slice sch with
      | Scheduler.Ran -> ()
      | Scheduler.Idle -> (
        match read ~block:true with
        | `Line l -> handle l
        | `Eof -> stop := Some Drain
        | `Nothing -> ())
    end
  done;
  (match !stop with
  | Some Drain -> Scheduler.drain sch
  | Some Preempt -> Scheduler.preempt_all sch
  | Some Abort | None -> ());
  Scheduler.abandon sch;
  Scheduler.shutdown sch;
  write (Protocol.metrics_line ~final:true ~metrics:(Obs.Metrics.to_json ()));
  let c = Scheduler.counts sch in
  write
    (Protocol.bye ~submitted:c.submitted ~completed:c.completed ~failed:c.failed
       ~cancelled:c.cancelled ~preempted:c.preempted);
  log
    (Printf.sprintf
       "serve: shutting down — %d submitted, %d completed, %d failed, %d cancelled, %d preempted"
       c.submitted c.completed c.failed c.cancelled c.preempted);
  0

let fd_reader fd =
  let pending = Queue.create () in
  let partial = Buffer.create 256 in
  let eof = ref false in
  let chunk = Bytes.create 4096 in
  (* [false] when a signal interrupted the read: the caller must get
     control back (to notice a termination request) instead of being
     wedged in a retry loop around a blocking read. *)
  let pull () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      eof := true;
      if Buffer.length partial > 0 then begin
        Queue.add (Buffer.contents partial) pending;
        Buffer.clear partial
      end;
      true
    | n ->
      for i = 0 to n - 1 do
        match Bytes.get chunk i with
        | '\n' ->
          Queue.add (Buffer.contents partial) pending;
          Buffer.clear partial
        | c -> Buffer.add_char partial c
      done;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  let readable () =
    match Unix.select [ fd ] [] [] 0. with
    | r, _, _ -> r <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  fun ~block ->
    let rec next () =
      match Queue.take_opt pending with
      | Some l -> `Line l
      | None ->
        if !eof then `Eof
        else if block || readable () then begin
          if pull () then next () else `Nothing
        end
        else `Nothing
    in
    next ()
