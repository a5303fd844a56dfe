module Obs = Wampde_obs

type kind =
  | Linear_solve
  | Newton_diverge
  | Nan_residual
  | Checkpoint_trunc
  | Solver_stall
  | Journal_trunc

let kinds =
  [ Linear_solve; Newton_diverge; Nan_residual; Checkpoint_trunc; Solver_stall; Journal_trunc ]

let kind_name = function
  | Linear_solve -> "linsolve"
  | Newton_diverge -> "diverge"
  | Nan_residual -> "nan"
  | Checkpoint_trunc -> "ckpt-trunc"
  | Solver_stall -> "stall"
  | Journal_trunc -> "journal-trunc"

let kind_of_name = function
  | "linsolve" -> Some Linear_solve
  | "diverge" -> Some Newton_diverge
  | "nan" -> Some Nan_residual
  | "ckpt-trunc" -> Some Checkpoint_trunc
  | "stall" -> Some Solver_stall
  | "journal-trunc" -> Some Journal_trunc
  | _ -> None

let index = function
  | Linear_solve -> 0
  | Newton_diverge -> 1
  | Nan_residual -> 2
  | Checkpoint_trunc -> 3
  | Solver_stall -> 4
  | Journal_trunc -> 5

let env_var = "WAMPDE_FAULTS"

type trigger = At of int  (** single shot on the n-th call *) | Prob of float

(* [scope = Some label] counts, and draws for, only the calls made
   while [label] is the innermost [Obs.Scope] *)
type rule = { scope : string option; trigger : trigger }

let default_stall_s = 0.25

type schedule = {
  rules : rule list array; (* indexed by [index kind] *)
  mutable lcg : int64;
  calls : int array;
  scoped_calls : (string * int ref) list array;
      (* by kind: the calls in each scope a rule of that kind names *)
  injected : int array;
  stall_s : float; (* sleep injected by a [Solver_stall] trip *)
}

let state : schedule option ref = ref None

let c_injected =
  let tbl = Array.of_list kinds in
  Array.map (fun k -> Obs.Metrics.counter ("fault.injected." ^ kind_name k)) tbl

(* Numerical Recipes 64-bit LCG; the top 53 bits feed a uniform in [0,1). *)
let lcg_next s =
  s.lcg <- Int64.add (Int64.mul s.lcg 6364136223846793005L) 1442695040888963407L;
  let bits = Int64.shift_right_logical s.lcg 11 in
  Int64.to_float bits /. 9007199254740992.

let parse spec =
  let entries =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let seed = ref 1L in
  let stall = ref default_stall_s in
  let rules = Array.make (List.length kinds) [] in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go = function
    | [] ->
      let rules = Array.map List.rev rules in
      let seed = !seed in
      let stall_s = !stall in
      Ok
        (fun () ->
          state :=
            Some
              {
                rules;
                lcg = seed;
                calls = Array.make (Array.length rules) 0;
                scoped_calls =
                  Array.map
                    (fun l ->
                      List.sort_uniq String.compare (List.filter_map (fun r -> r.scope) l)
                      |> List.map (fun scope -> (scope, ref 0)))
                    rules;
                injected = Array.make (Array.length rules) 0;
                stall_s;
              })
    | entry :: rest -> (
      match String.index_opt entry '=' with
      | Some i when String.sub entry 0 i = "seed" -> (
        let v = String.sub entry (i + 1) (String.length entry - i - 1) in
        match Int64.of_string_opt v with
        | Some s ->
          seed := s;
          go rest
        | None -> err "Fault.parse: bad seed %S" v)
      | Some i when String.sub entry 0 i = "stall" -> (
        let v = String.sub entry (i + 1) (String.length entry - i - 1) in
        match float_of_string_opt v with
        | Some s when s >= 0. && Float.is_finite s ->
          stall := s;
          go rest
        | Some _ | None -> err "Fault.parse: bad stall duration %S" v)
      | Some _ -> err "Fault.parse: unknown assignment %S" entry
      | None -> (
        let split c s =
          match String.index_opt s c with
          | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
          | None -> None
        in
        let scope, rule =
          match split ':' entry with
          | Some (scope, rule) -> (Some scope, rule)
          | None -> (None, entry)
        in
        let add k trigger =
          rules.(index k) <- { scope; trigger } :: rules.(index k);
          go rest
        in
        match (scope, split '@' rule) with
        | Some "", _ -> err "Fault.parse: empty scope in %S" entry
        | _, Some (name, n) -> (
          match (kind_of_name name, int_of_string_opt n) with
          | Some k, Some n when n >= 1 -> add k (At n)
          | Some _, _ -> err "Fault.parse: bad call count in %S" entry
          | None, _ -> err "Fault.parse: unknown fault kind %S" name)
        | _, None -> (
          match split '%' rule with
          | Some (name, p) -> (
            match (kind_of_name name, float_of_string_opt p) with
            | Some k, Some p when p >= 0. && p <= 1. -> add k (Prob p)
            | Some _, _ -> err "Fault.parse: bad probability in %S" entry
            | None, _ -> err "Fault.parse: unknown fault kind %S" name)
          | None ->
            err
              "Fault.parse: malformed entry %S (want [scope:]kind@N, [scope:]kind%%P or seed=S)"
              entry)))
  in
  go entries

let arm spec = Result.map (fun install -> install ()) (parse spec)

let arm_exn spec =
  match arm spec with Ok () -> () | Error msg -> invalid_arg msg

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec -> arm_exn spec

let disarm () = state := None
let armed () = !state <> None

let fire kind =
  match !state with
  | None -> false
  | Some s ->
    let i = index kind in
    s.calls.(i) <- s.calls.(i) + 1;
    let scope = Obs.Scope.current () in
    let in_scope =
      match List.assoc_opt scope s.scoped_calls.(i) with
      | Some n ->
        incr n;
        !n
      | None -> 0
    in
    let applies ~call = function At n -> n = call | Prob p -> lcg_next s < p in
    let hit =
      List.exists
        (fun r ->
          match r.scope with
          | None -> applies ~call:s.calls.(i) r.trigger
          | Some label -> String.equal label scope && applies ~call:in_scope r.trigger)
        s.rules.(i)
    in
    if hit then begin
      s.injected.(i) <- s.injected.(i) + 1;
      Obs.Metrics.incr c_injected.(i);
      (* every harness trip lands on the flight-recorder timeline, so a
         dump triggered by the resulting failure shows the injection
         that caused it *)
      Obs.Flight.note ~kind:"fault"
        (Printf.sprintf "injected %s (call %d, injection %d)" (kind_name kind) s.calls.(i)
           s.injected.(i))
    end;
    hit

let injected kind =
  match !state with None -> 0 | Some s -> s.injected.(index kind)

let stall_seconds () =
  match !state with None -> default_stall_s | Some s -> s.stall_s

(* Probe site helper for [Solver_stall]: when the schedule says so,
   wedge the caller by sleeping past the serve watchdog's stall
   threshold.  The sleep is interruptible — a SIGALRM-driven watchdog
   raising from its handler propagates out of [sleepf], exactly like a
   genuinely stuck solver being cancelled. *)
let maybe_stall () =
  if armed () && fire Solver_stall then begin
    let s = stall_seconds () in
    if s > 0. then try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

let with_armed spec f =
  let saved = !state in
  arm_exn spec;
  Fun.protect ~finally:(fun () -> state := saved) f
