(** Modified nodal analysis: netlists of stamped devices compiled to
    the DAE form [d/dt q(x) + f(t, x) = 0] of {!Dae.t}.

    The unknown vector [x] stacks the voltages of all non-ground nodes
    (in creation order) followed by the extra states of each device
    (branch currents, mechanical coordinates, ...) in insertion order.

    Sign conventions: [f] rows for nodes accumulate currents {e
    leaving} the node (KCL: sum of leaving currents is zero); [q] rows
    accumulate charge stored at the node.  A device connected between
    nodes [n1] and [n2] sees the branch voltage [v n1 -. v n2]. *)

open Linalg

(** Ground node: always index 0, voltage identically zero. *)
val ground : int

(** A stamped device: its label, the names and initial values of its
    extra states, and the stamp that adds its charges, currents and
    Jacobian entries on every evaluation of the compiled circuit.  A
    compiled circuit holds no mutable state of its own, so its
    evaluator may run on several domains at once. *)
type device

type t
(** A netlist under construction. *)

(** [create ()] is an empty netlist (just the ground node). *)
val create : unit -> t

(** [node t name] returns the id of the named node, creating it if
    needed.  The names ["0"], ["gnd"] and ["ground"] denote ground. *)
val node : t -> string -> int

(** [add t device] appends a device. *)
val add : t -> device -> unit

(** [compile t] freezes the netlist into a DAE.  Its
    {!Dae.t.eval_into} zeroes the requested buffers and stamps every
    device once, in insertion order, into all of them; [q], [f], [dq]
    and [df] are allocating views over that one pass.  A pass that
    requests neither [C] nor [G] skips every device's derivative
    arithmetic; its [q] and [f] are bitwise those of a full pass.
    Variable names are ["v(<node>)"] for node voltages and
    ["<label>.<state>"] for device states. *)
val compile : t -> Dae.t

(** [initial_guess t] is a start vector matching {!compile}'s layout:
    zero node voltages, devices' initial extra-state values. *)
val initial_guess : t -> Vec.t

(** {1 Devices}

    All two-terminal constructors take the two node ids [n1 n2] and are
    stamped with branch voltage [v = v(n1) - v(n2)] and current flowing
    [n1 -> n2] inside the device. *)

(** [resistor ~label ~r n1 n2] — linear resistor of resistance [r]. *)
val resistor : label:string -> r:float -> int -> int -> device

(** [capacitor ~label ~c n1 n2] — linear capacitor. *)
val capacitor : label:string -> c:float -> int -> int -> device

(** [inductor ~label ~l n1 n2] — linear inductor; adds one branch
    current state. *)
val inductor : label:string -> l:float -> int -> int -> device

(** [vsource ~label ~v n1 n2] — independent voltage source
    [v(n1) - v(n2) = v t]; adds one branch current state. *)
val vsource : label:string -> v:(float -> float) -> int -> int -> device

(** [isource ~label ~i n1 n2] — independent current source pushing
    [i t] from [n1] to [n2] through the device. *)
val isource : label:string -> i:(float -> float) -> int -> int -> device

(** [cubic_conductance ~label ~g1 ~g3 n1 n2] — the paper's nonlinear
    resistor [i(v) = -g1 v + g3 v^3]: negative (energy-supplying)
    around [v = 0], positive beyond [sqrt (g1 / g3)]. *)
val cubic_conductance : label:string -> g1:float -> g3:float -> int -> int -> device

(** [diode ~label ?is_ ?vt n1 n2] — exponential diode with current
    limiting for Newton robustness ([is_] saturation current, [vt]
    thermal voltage).  Raises [Invalid_argument] unless [vt > 0]. *)
val diode : label:string -> ?is_:float -> ?vt:float -> int -> int -> device

(** Parameters of the MEMS varactor (see DESIGN.md).  The moving plate
    obeys [mass g'' + damping g' + stiffness (g - g_rest) = -force].
    The electrostatic actuation force is [force0 * vc(t)^2 / g^power]
    with [power = 0] modelling a comb-drive actuator and [power = 2] a
    parallel-plate one.  The sense capacitance is [c0 *. g0 /. g]. *)
type varactor_params = {
  c0 : float;  (** capacitance at gap [g0] *)
  gap0 : float;  (** reference gap *)
  g_rest : float;  (** spring rest gap *)
  mass : float;
  damping : float;
  stiffness : float;
  force0 : float;
  force_power : int;  (** 0 (comb drive) or 2 (parallel plate) *)
  control : float -> float;  (** control voltage vc(t) *)
}

(** [mems_varactor ~label ~params n1 n2] — voltage-controlled MEMS
    capacitor; adds two states: plate gap [g] and its velocity [u]. *)
val mems_varactor : label:string -> params:varactor_params -> int -> int -> device

(** [vccs ~label ~gm ncp ncn n1 n2] — voltage-controlled current
    source: pushes [gm (v ncp - v ncn)] from [n1] to [n2]. *)
val vccs : label:string -> gm:float -> int -> int -> int -> int -> device

(** [vcvs ~label ~gain ncp ncn n1 n2] — voltage-controlled voltage
    source [v n1 - v n2 = gain (v ncp - v ncn)]; one branch-current
    state. *)
val vcvs : label:string -> gain:float -> int -> int -> int -> int -> device

(** [mosfet ~label ?k ?vt ~drain ~gate ~source ()] — level-1
    square-law n-channel MOSFET ([k] transconductance factor, [vt]
    threshold); symmetric in drain/source. *)
val mosfet :
  label:string -> ?k:float -> ?vt:float -> drain:int -> gate:int -> source:int -> unit -> device

(** [junction_capacitor ~label ?c0 ?vj ?m ?fc n1 n2] — junction
    (varactor-diode) capacitance [c0 / (1 - v/vj)^m] with the standard
    linearized extension above [fc vj]; the classic electrically tuned
    capacitor alternative to the MEMS varactor.  Raises
    [Invalid_argument] unless [m < 1], [vj > 0] and [0 <= fc < 1]. *)
val junction_capacitor :
  label:string -> ?c0:float -> ?vj:float -> ?m:float -> ?fc:float -> int -> int -> device

(** [multiplier ~label ~k (a1, a2) (b1, b2) n1 n2] — analog multiplier
    (four-quadrant mixer / phase detector): pushes the current
    [k (v a1 - v a2) (v b1 - v b2)] from [n1] to [n2]. *)
val multiplier : label:string -> k:float -> int * int -> int * int -> int -> int -> device
