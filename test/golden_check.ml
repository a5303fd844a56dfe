(* Golden-regression harness for the paper-figure experiments.

   Runs small, deterministic versions of four experiments —

     vco_a_envelope       VCO-A WaMPDE envelope: local frequency omega(t2)
                          and amplitude envelope (paper Figs. 7-9 regime)
     mpde_am_spectrum     quasiperiodic MPDE of the AM filter: 2-D
                          harmonic magnitudes |X_{k1,k2}|
     vco_a_quasiperiodic  VCO-A quasiperiodic WaMPDE (matrix-free):
                          omega and peak voltage per slow slice
     orbits               unforced orbits of VCO-A, VCO-B, van der Pol
                          and the diode VCO: omega and amplitude

   — and compares every recorded quantity against the committed
   reference in test/golden/*.json, with per-quantity rtol/atol stored
   in the file itself.  On mismatch it prints the worst deviation (in
   tolerance units, with index and both values) and exits non-zero.

   Usage:
     golden_check.exe [--dir DIR]            check against references
     golden_check.exe --update [--dir DIR]   (re)write the references *)

let two_pi = 2. *. Float.pi

type quantity = { rtol : float; atol : float; values : float array }

type experiment = (string * quantity) list

(* ---------- minimal JSON (objects of {rtol, atol, values}) ---------- *)

let json_of_experiment (e : experiment) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, q) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "  %S: {\n" name);
      Buffer.add_string buf (Printf.sprintf "    \"rtol\": %.17g,\n" q.rtol);
      Buffer.add_string buf (Printf.sprintf "    \"atol\": %.17g,\n" q.atol);
      Buffer.add_string buf "    \"values\": [";
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "%.17g" v))
        q.values;
      Buffer.add_string buf "]\n  }")
    e;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

exception Parse_error of string

(* recursive-descent parser for the subset we emit: objects, arrays,
   strings (no escapes needed for our keys) and numbers *)
let parse_json (s : string) : experiment =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then
      raise (Parse_error (Printf.sprintf "expected %C at offset %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < len && s.[!pos] <> '"' do
      advance ()
    done;
    if !pos >= len then raise (Parse_error "unterminated string");
    let str = String.sub s start (!pos - start) in
    advance ();
    str
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < len
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    match float_of_string_opt str with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "bad number %S at offset %d" str start))
  in
  let parse_values () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      advance ();
      [||]
    end
    else begin
      let acc = ref [ parse_number () ] in
      skip_ws ();
      while peek () = ',' do
        advance ();
        acc := parse_number () :: !acc;
        skip_ws ()
      done;
      expect ']';
      Array.of_list (List.rev !acc)
    end
  in
  let parse_quantity () =
    expect '{';
    let rtol = ref nan and atol = ref nan and values = ref [||] in
    let parse_field () =
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      match key with
      | "rtol" -> rtol := parse_number ()
      | "atol" -> atol := parse_number ()
      | "values" -> values := parse_values ()
      | k -> raise (Parse_error (Printf.sprintf "unknown quantity field %S" k))
    in
    parse_field ();
    skip_ws ();
    while peek () = ',' do
      advance ();
      parse_field ();
      skip_ws ()
    done;
    expect '}';
    if Float.is_nan !rtol || Float.is_nan !atol then
      raise (Parse_error "quantity missing rtol/atol");
    { rtol = !rtol; atol = !atol; values = !values }
  in
  expect '{';
  skip_ws ();
  let entries = ref [] in
  if peek () <> '}' then begin
    let parse_entry () =
      let name = (skip_ws (); parse_string ()) in
      expect ':';
      entries := (name, parse_quantity ()) :: !entries
    in
    parse_entry ();
    skip_ws ();
    while peek () = ',' do
      advance ();
      parse_entry ();
      skip_ws ()
    done
  end;
  expect '}';
  skip_ws ();
  if !pos <> len then raise (Parse_error "trailing content");
  List.rev !entries

(* ---------- experiments ---------- *)

let vco_a_envelope () : experiment =
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let n1 = 15 in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
  let options = Wampde.Envelope.default_options ~n1 () in
  let res = Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:0.5 ~init:orbit in
  let amp = Wampde.Envelope.amplitude_track res ~component:Circuit.Vco.idx_voltage in
  [
    ("t2", { rtol = 1e-12; atol = 1e-12; values = res.Wampde.Envelope.t2 });
    ("omega", { rtol = 1e-6; atol = 1e-9; values = res.Wampde.Envelope.omega });
    ("amplitude", { rtol = 1e-6; atol = 1e-9; values = amp });
  ]

let mpde_am_spectrum () : experiment =
  let p1 = 0.01 and p2 = two_pi /. 0.6 in
  let a t2 = 1. +. (0.5 *. sin (two_pi *. t2 /. p2)) in
  let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) () in
  let sys =
    { Mpde.dae; p1; b_fast = (fun ~t1 ~t2 -> [| -.(a t2) *. sin (two_pi *. t1 /. p1) |]) }
  in
  let n1 = 15 and n2 = 9 in
  let guess = Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])) in
  let res = Mpde.quasiperiodic sys ~n1 ~n2 ~p2 ~guess in
  (* 2-D DFT magnitudes of component 0 over the biperiodic grid: the
     quasiperiodic spectrum lines |X_{k1,k2}| *)
  let mags = ref [] in
  for k1 = 0 to 3 do
    for k2 = -2 to 2 do
      let re = ref 0. and im = ref 0. in
      for m = 0 to n2 - 1 do
        for j = 0 to n1 - 1 do
          let ph =
            -.two_pi
            *. ((float_of_int (k1 * j) /. float_of_int n1)
               +. (float_of_int (k2 * m) /. float_of_int n2))
          in
          let x = res.Mpde.slices.(m).(j).(0) in
          re := !re +. (x *. cos ph);
          im := !im +. (x *. sin ph)
        done
      done;
      let scale = 1. /. float_of_int (n1 * n2) in
      mags := sqrt ((!re *. !re) +. (!im *. !im)) *. scale :: !mags
    done
  done;
  [ ("harmonic_mags", { rtol = 1e-6; atol = 1e-10; values = Array.of_list (List.rev !mags) }) ]

(* VCO-A quasiperiodic steady state through [Quasiperiodic.from_orbit]
   at n1 = 15, n2 = 7: 427 unknowns, so [Structured.auto] takes the
   matrix-free path.  Each GMRES direction is solved to the forcing
   term 1e-10; rtol is 100x that (dense and Krylov answers agree to
   ~1e-14 here). *)
let vco_a_quasiperiodic () : experiment =
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let n1 = 15 and n2 = 7 in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
  let options = Wampde.Envelope.default_options ~n1 () in
  let sol = Wampde.Quasiperiodic.from_orbit dae ~options ~p2:40. ~n2 ~init:orbit () in
  (* peak |voltage| over the t1 grid of each slice *)
  let peak slice =
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x.(Circuit.Vco.idx_voltage))) 0. slice
  in
  let tol values = { rtol = 1e-8; atol = 1e-10; values } in
  [
    ("omega", tol sol.Wampde.Quasiperiodic.omega);
    ("peak_voltage", tol (Array.map peak sol.Wampde.Quasiperiodic.slices));
  ]

(* Unforced orbits of four circuits through [Oscillator.find]: omega
   and the amplitude of variable 0.  Each is a Newton solve to 1e-12,
   where the orbit no longer depends on the warm-up it starts from, so
   a change of the orbit solver that moves more than rounding shows
   here. *)
let orbits () : experiment =
  let vdp mu =
    Dae.of_ode ~dim:2
      ~rhs:(fun ~t:_ x -> [| x.(1); (mu *. (1. -. (x.(0) *. x.(0))) *. x.(1)) -. x.(0) |])
      ()
  in
  let vco p n1 =
    Steady.Oscillator.find (Circuit.Vco.build p) ~n1 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state p)
  in
  let vco_a = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let vco_b = Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) () in
  let diode = Circuit.Diode_vco.default_params ~control:(fun _ -> 3.) () in
  let runs =
    [|
      vco vco_a 15;
      vco vco_a 41;
      vco vco_b 25;
      Steady.Oscillator.find (vdp 0.3) ~n1:31 ~period_hint:6.3 [| 2.; 0. |];
      Steady.Oscillator.find (Circuit.Diode_vco.build diode) ~n1:31 ~period_hint:1.0
        (Circuit.Diode_vco.initial_state diode ~at:0.);
    |]
  in
  let tol values = { rtol = 1e-10; atol = 1e-12; values } in
  [
    ("omega", tol (Array.map (fun o -> o.Steady.Oscillator.omega) runs));
    ("amplitude", tol (Array.map (Steady.Oscillator.amplitude ~component:0) runs));
  ]

let experiments =
  [
    ("vco_a_envelope", vco_a_envelope);
    ("mpde_am_spectrum", mpde_am_spectrum);
    ("vco_a_quasiperiodic", vco_a_quasiperiodic);
    ("orbits", orbits);
  ]

(* ---------- compare / update ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

(* worst deviation of [got] vs [ref] in tolerance units: max over i of
   |got_i - ref_i| / (atol + rtol |ref_i|); <= 1 passes *)
let compare_quantity ~exp_name ~qty_name (reference : quantity) (got : float array) =
  if Array.length got <> Array.length reference.values then begin
    Printf.printf "FAIL %s/%s: length %d, golden has %d\n" exp_name qty_name
      (Array.length got) (Array.length reference.values);
    false
  end
  else begin
    let worst = ref 0. and worst_i = ref 0 in
    Array.iteri
      (fun i r ->
        let dev = Float.abs (got.(i) -. r) /. (reference.atol +. (reference.rtol *. Float.abs r)) in
        if dev > !worst then begin
          worst := dev;
          worst_i := i
        end)
      reference.values;
    let ok = !worst <= 1. in
    Printf.printf "%s %s/%s: worst deviation %.3f tol units at index %d (got %.12g, golden %.12g)\n"
      (if ok then "ok  " else "FAIL")
      exp_name qty_name !worst !worst_i got.(!worst_i)
      reference.values.(!worst_i);
    ok
  end

let () =
  let update = ref false and dir = ref "test/golden" in
  let rec parse_args = function
    | [] -> ()
    | "--update" :: rest ->
      update := true;
      parse_args rest
    | "--dir" :: d :: rest ->
      dir := d;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "golden_check: unknown argument %S\n" arg;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let failures = ref 0 in
  List.iter
    (fun (name, run) ->
      let path = Filename.concat !dir (name ^ ".json") in
      (* isolate the process-global metrics registry so telemetry state
         cannot couple the experiments (or any future caller) *)
      let got = Wampde_obs.Metrics.with_isolated run in
      if !update then begin
        write_file path (json_of_experiment got);
        Printf.printf "wrote %s\n" path
      end
      else begin
        let reference =
          try parse_json (read_file path) with
          | Sys_error msg ->
            Printf.eprintf "golden_check: cannot read %s: %s (run with --update?)\n" path msg;
            exit 2
          | Parse_error msg ->
            Printf.eprintf "golden_check: %s: malformed golden file: %s\n" path msg;
            exit 2
        in
        List.iter
          (fun (qty_name, ref_q) ->
            match List.assoc_opt qty_name got with
            | None ->
              Printf.printf "FAIL %s/%s: quantity missing from run\n" name qty_name;
              incr failures
            | Some got_q ->
              if not (compare_quantity ~exp_name:name ~qty_name ref_q got_q.values) then
                incr failures)
          reference;
        List.iter
          (fun (qty_name, _) ->
            if not (List.mem_assoc qty_name reference) then begin
              Printf.printf "FAIL %s/%s: quantity missing from golden file (run --update?)\n"
                name qty_name;
              incr failures
            end)
          got
      end)
    experiments;
  if !failures > 0 then begin
    Printf.printf "golden check: %d quantit%s out of tolerance\n" !failures
      (if !failures = 1 then "y" else "ies");
    exit 1
  end
  else if not !update then print_endline "golden check: all quantities within tolerance"
