(** Crash-recoverable job journal of [wampde_cli serve].

    A write-ahead log in the spool directory recording every job
    lifecycle transition (accepted → running → checkpointed → … →
    done/error) as a CRC-guarded binary frame, so a daemon killed
    mid-batch can be restarted on the same spool and {!replay} +
    {!orphans} reconstruct which jobs never reached a terminal state —
    those are re-enqueued and, when their bit-exact checkpoint
    survived, resumed from it.

    Frames reuse the {!Checkpoint} section codec and CRC32: each is
    ["WJR1"], a little-endian payload length, the payload CRC and the
    payload itself.  The file, [journal.wj] in the spool directory,
    starts with a schema header frame (["wampde.journal/2"]; {!replay}
    also reads a ["wampde.journal/1"] file, whose frames carry an
    [attempt] section it ignores).  Appends
    go through a single [write(2)] on an [O_APPEND] descriptor; a crash
    therefore damages at most the final frame, which replay detects
    (warning, not error) and drops together with the unreachable bytes
    behind it.

    Instrumented as [serve.journal.appends], [serve.journal.replayed]
    and [serve.journal.corrupt_tail]. *)

type state =
  | Accepted of { request : string }
      (** job accepted; [request] is the raw NDJSON request line, kept
          verbatim so recovery can re-parse it with the same total
          parser that admitted it *)
  | Running  (** the job's first quantum started *)
  | Checkpointed  (** preempted mid-march; a resume checkpoint is on disk *)
  | Preempted  (** graceful shutdown parked the job for a later daemon *)
  | Done
  | Error of { kind : string }

type record = { id : string; state : state }

val state_name : state -> string

(** Append handle over an open journal file. *)
type t

(** Open (creating, with a schema header) the journal in [spool].
    The spool directory must exist. *)
val open_ : spool:string -> t

(** Append one frame.  Probes the {!Fault.Journal_trunc} injection
    point: when armed and fired, only a prefix of the frame is
    written, emulating a crash mid-append.  No-op after {!close}. *)
val append : t -> record -> unit

val close : t -> unit

(** Replay every decodable frame (oldest first) plus warnings for a
    damaged tail.  A missing journal is [([], [])]; an unreadable one
    raises {!Checkpoint.Corrupt}. *)
val replay : spool:string -> record list * string list

(** A job whose last journaled state is non-terminal: the daemon died
    while it was queued or running. *)
type orphan = {
  id : string;
  request : string;  (** raw request line from the [Accepted] frame *)
  last : state;
}

(** Non-terminal jobs in acceptance order.  Transitions whose
    [Accepted] frame was lost to a damaged prefix are ignored. *)
val orphans : record list -> orphan list
