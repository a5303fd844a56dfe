(** SPICE-flavoured netlist parser.

    Grammar (case-insensitive; [*] or [;] start a comment line; an
    optional [.end] line terminates the deck; values accept the SPICE
    suffixes [t g meg k m u n p f]):

    {v
    R<name> n1 n2 <value>
    C<name> n1 n2 <value>
    C<name> n1 n2 JUNCTION [C0=<v>] [VJ=<v>] [M=<v>] [FC=<v>]
    L<name> n1 n2 <value>
    V<name> n1 n2 <value>            constant source
    V<name> n1 n2 DC <value>
    V<name> n1 n2 SIN(<off> <amp> <freq>)
    I<name> n1 n2 <source as for V>
    D<name> n1 n2 [IS=<v>] [VT=<v>]
    G<name> n1 n2 nc1 nc2 <gm>       VCCS (current n1->n2)
    E<name> n1 n2 nc1 nc2 <gain>     VCVS
    M<name> nd ng ns [K=<v>] [VT=<v>]    square-law MOSFET
    N<name> n1 n2 <g1> <g3>          cubic negative conductance
    v}

    Node ["0"], ["gnd"] or ["ground"] is ground. *)

exception Parse_error of { line : int; message : string }

(** [parse_file path] reads and parses a deck from disk.  Raises
    {!Parse_error} with a 1-based line number on malformed input,
    including device parameters the constructor rejects (e.g.
    [R1 a 0 0]). *)
val parse_file : string -> Mna.t
