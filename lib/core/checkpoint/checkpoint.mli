(** Binary checkpoint files for long integrator runs.

    A checkpoint is an ordered list of named sections (scalars, text,
    and 1/2/3-dimensional float arrays) written to a single file with
    a magic string, a format version and a CRC32 of the payload, so a
    killed run can resume and a truncated or bit-flipped file is
    detected instead of silently resuming from garbage.

    Floats round-trip exactly (IEEE-754 bit patterns are stored), so a
    resumed integration continues bit-compatibly with the run that
    wrote the file.

    Writes are atomic: the payload goes to [path ^ ".tmp"] and is
    renamed over [path], so a crash mid-checkpoint leaves the previous
    checkpoint intact.

    Telemetry: saves and loads run inside [checkpoint.save] /
    [checkpoint.load] spans, bump the [checkpoint.saves] /
    [checkpoint.loads] counters and mirror the encoded size in the
    [checkpoint.bytes] gauge. *)

type section =
  | Scalar of float
  | Text of string
  | Vector of float array
  | Matrix of float array array
  | Tensor of float array array array

(** Named sections, preserved in order. *)
type t = (string * section) list

(** Raised by {!load} on bad magic, unknown version, CRC mismatch,
    truncation, or by the typed accessors on missing/mistyped
    sections. *)
exception Corrupt of string

val save : path:string -> t -> unit
(** Atomic (tmp + rename) CRC-protected write.  Probes the
    [Fault.Checkpoint_trunc] injection point: when armed and fired, the
    payload is deliberately truncated so a subsequent {!load} raises
    {!Corrupt}. *)

val load : path:string -> t

(** {1 Raw framing}

    The section codec and CRC used by {!save}/{!load}, exposed so
    other durable formats (e.g. the serve job journal) can reuse the
    bit-preserving encoding and corruption detection without
    reimplementing them. *)

(** [encode t] is the binary payload of [t] (no header, no CRC);
    floats keep their IEEE-754 bit patterns. *)
val encode : t -> Bytes.t

(** [decode payload] inverts {!encode}.  @raise Corrupt on truncated,
    trailing or otherwise malformed bytes. *)
val decode : Bytes.t -> t

(** CRC32 (IEEE 802.3, reflected) of a byte string — the checksum
    {!save} stores and {!load} verifies. *)
val crc32 : Bytes.t -> int32

(** {1 Typed accessors} (all raise {!Corrupt} with the section name on
    a missing or differently-typed section) *)

val scalar : t -> string -> float
val text : t -> string -> string
val vector : t -> string -> float array
val matrix : t -> string -> float array array
val tensor : t -> string -> float array array array
