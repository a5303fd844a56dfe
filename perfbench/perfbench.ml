(* The repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 measures the end-to-end metrics with telemetry off;
   --trace 1 runs untraced reference passes, then one traced pass, and
   reports the per-layer ledger.  The last line of standard output is
   one JSON object {correct, attempted, failed, metrics}; the line
   before it is a JSON record with the machine context, the workload's
   own figures and any failures.  --smoke cuts every workload down (the
   self-test uses it).  README.md lists the workloads and metrics. *)

module Obs = Wampde_obs
module W = Workloads

type metric = { name : string; unit : string }

let end_to_end =
  [
    { name = "setup_s"; unit = "s" };
    { name = "solve_s"; unit = "s" };
    { name = "alloc_mwords"; unit = "Mwords" };
    { name = "heap_peak_mb"; unit = "MB" };
  ]

(* ---------- per-layer metrics of the traced pass ---------- *)

type env = { ledger : Ledger.t; untraced_wall_s : float; figure : string -> float }

let count name = float_of_int (Obs.Metrics.count (Obs.Metrics.counter name))
let gauge name = Obs.Metrics.value (Obs.Metrics.gauge name)
let hist_mean name = Obs.Metrics.mean (Obs.Metrics.histogram name)
let ratio a b = if b > 0. then a /. b else 0.

(* scope labels grouped by layer, for the per-scope counter buckets *)
let scope_group = function
  | "transient" -> "transient"
  | "oscillator" | "shooting" | "hb" -> "oscillator"
  | "envelope.newton" | "envelope.outer" | "hb_envelope" -> "envelope"
  | "quasiperiodic" -> "quasiperiodic"
  | "mpde" -> "mpde"
  | _ -> "other"

let scope_groups = [ "transient"; "oscillator"; "envelope"; "quasiperiodic"; "mpde"; "other" ]

let scoped name group =
  match List.assoc_opt name (Obs.Metrics.scoped_counters ()) with
  | None -> 0.
  | Some buckets ->
    float_of_int
      (List.fold_left (fun acc (s, n) -> if scope_group s = group then acc + n else acc) 0 buckets)

let pct e s = 100. *. ratio s e.ledger.Ledger.wall_s

let per_layer : (metric * (env -> float)) list =
  let m name unit f = ({ name; unit }, f) in
  let counts names = List.map (fun n -> m n "count" (fun _ -> count n)) names in
  let by_scope name unit =
    List.map (fun g -> m (name ^ "." ^ g) unit (fun _ -> scoped name g)) scope_groups
  in
  let layers = Array.to_list (Array.mapi (fun i l -> (i, l)) Ledger.layers) in
  [
    m "traced_wall_s" "s" (fun e -> e.ledger.wall_s);
    m "trace_overhead" "x" (fun e -> ratio e.ledger.wall_s e.untraced_wall_s);
    m "traced_alloc_mwords" "Mwords" (fun e -> e.ledger.alloc_words /. 1e6);
    m "circuit.eval_pct" "%" (fun e -> pct e e.ledger.circuit_s);
  ]
  @ List.map (fun (i, l) -> m (l ^ ".self_pct") "%" (fun e -> pct e e.ledger.self_s.(i))) layers
  @ [ m "unattributed.self_pct" "%" (fun e -> pct e e.ledger.unattributed_s) ]
  @ List.map
      (fun (i, l) -> m (l ^ ".alloc_mwords") "Mwords" (fun e -> e.ledger.self_alloc_words.(i) /. 1e6))
      layers
  @ [
      m "unattributed.alloc_mwords" "Mwords" (fun e -> e.ledger.unattributed_alloc_words /. 1e6);
      m "circuit.f_calls" "count" (fun e -> float_of_int e.ledger.f_calls);
      m "circuit.df_calls" "count" (fun e -> float_of_int e.ledger.df_calls);
      m "circuit.q_calls" "count" (fun e -> float_of_int e.ledger.q_calls);
      m "circuit.dq_calls" "count" (fun e -> float_of_int e.ledger.dq_calls);
      m "circuit.worker_eval_pct" "%" (fun e -> pct e e.ledger.circuit_worker_s);
      m "transient.steps" "count" (fun _ -> count "transient.steps");
      m "transient.newton_per_step" "iter/step" (fun _ ->
          ratio (scoped "newton.iterations" "transient") (count "transient.steps"));
      m "oscillator.finds" "count" (fun e -> float_of_int e.ledger.oscillator_finds);
      m "oscillator.lu_factors" "count" (fun e -> float_of_int e.ledger.oscillator_lu_factors);
      m "oscillator.transient_steps" "count" (fun e ->
          float_of_int e.ledger.oscillator_transient_steps);
    ]
  @ counts
      [
        "envelope.steps";
        "envelope.rejects";
        "envelope.jacobian_refreshes";
        "envelope.rescues";
        "newton.solves";
        "newton.iterations";
      ]
  @ [
      m "newton.iterations_per_solve" "iter/solve" (fun _ -> hist_mean "newton.iterations_per_solve");
    ]
  @ by_scope "newton.iterations" "count"
  @ counts
      [
        "newton.strategy.damped";
        "newton.strategy.trust_region";
        "newton.strategy.ptc";
        "newton.strategy.homotopy";
        "newton.strategy.escalations";
        "newton.strategy.failed";
        "trust_region.iterations";
        "ptc.iterations";
        "lu.factor";
      ]
  @ by_scope "lu.factor" "count"
  @ counts [ "lu.solve" ]
  @ [ m "lu.dim_mean" "rows" (fun _ -> hist_mean "lu.dim") ]
  @ counts [ "lu.factor_complex" ]
  @ [ m "lu.dim_complex_mean" "rows" (fun _ -> hist_mean "lu.dim_complex") ]
  @ counts [ "gmres.solves"; "gmres.iterations" ]
  @ [
      m "gmres.iterations_per_solve" "iter/solve" (fun _ ->
          ratio (count "gmres.iterations") (count "gmres.solves"));
    ]
  @ counts
      [
        "gmres.precond.builds";
        "gmres.precond.applies";
        "gmres.precond.block_factors";
        "gmres.precond.fallbacks";
        "pool.runs";
        "pool.tasks";
      ]
  @ [
      m "pool.tasks_per_run" "tasks/run" (fun _ -> ratio (count "pool.tasks") (count "pool.runs"));
      m "pool.busy_pct" "%" (fun e -> pct e (gauge "pool.busy_s"));
      m "pool.idle_pct" "%" (fun e -> pct e (gauge "pool.idle_s"));
      m "pool.efficiency_pct" "%" (fun _ ->
          100. *. ratio (gauge "pool.busy_s") (gauge "pool.busy_s" +. gauge "pool.idle_s"));
    ]
  @ counts
      [
        "step.accepted";
        "step.rejected";
        "step.retried";
        "checkpoint.saves";
        "checkpoint.loads";
      ]
  @ [ m "checkpoint.bytes" "bytes" (fun _ -> gauge "checkpoint.bytes") ]
  @ counts [ "serve.quanta"; "serve.preemptions"; "serve.journal.appends" ]
  @ [
      m "cache.orbit.hits" "count" (fun _ -> count "cache.orbit.hits");
      m "cache.orbit.misses" "count" (fun _ -> count "cache.orbit.misses");
      m "cache.precond.hits" "count" (fun _ -> count "cache.precond.hits");
      m "cache.precond.misses" "count" (fun _ -> count "cache.precond.misses");
      m "serve.overhead_pct" "%" (fun e -> e.figure "serve_overhead_pct");
    ]

(* ---------- machine context ---------- *)

let cpu_affinity () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

(* Digest of the library sources, for checkouts without git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           if Sys.is_directory p then files p else [ p ])
  in
  match files "lib" with
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) fs)))
  | exception Sys_error _ -> "unknown"

let json_str s = Printf.sprintf "%S" s
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let context ~workload ~seed ~seconds ~trace ~jobs =
  let digest = source_digest () in
  [
    ("workload", json_str workload);
    ("seed", string_of_int seed);
    ("seconds", num seconds);
    ("trace", string_of_int trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_affinity", json_str (cpu_affinity ()));
    ("pool_jobs", string_of_int jobs);
    ("ocaml", json_str Sys.ocaml_version);
    ("commit", json_str (Option.value (Obs.Report.git_describe ()) ~default:"unknown"));
    ("lib_digest", json_str digest);
  ]

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let value_json v u = obj [ ("value", num v); ("unit", json_str u) ]

(* ---------- main ---------- *)

let print_ledger (l : Ledger.t) =
  Printf.printf "# ledger: traced wall %.4f s (self time per layer, calling domain)\n" l.wall_s;
  let row name s a =
    Printf.printf "#   %-14s %9.4f s %6.2f%% %10.3f Mwords\n" name s (100. *. ratio s l.wall_s) (a /. 1e6)
  in
  row "circuit" l.circuit_s 0.;
  Array.iteri (fun i name -> row name l.self_s.(i) l.self_alloc_words.(i)) Ledger.layers;
  row "unattributed" l.unattributed_s l.unattributed_alloc_words;
  let total = l.circuit_s +. Array.fold_left ( +. ) 0. l.self_s +. l.unattributed_s in
  row "total" total l.alloc_words

let run (w : W.t) (ctx : W.ctx) ~trace =
  if trace = 0 then begin
    let m = w.measure ctx in
    let values =
      [
        ("setup_s", W.fastest m.setup_s);
        ("solve_s", W.fastest m.solve_s);
        ("alloc_mwords", W.median m.alloc_words /. 1e6);
        ("heap_peak_mb", m.heap_peak_mb);
      ]
    in
    Printf.printf "# %d set-ups, %d timed solves\n" (List.length m.setup_s) (List.length m.solve_s);
    (* the bounded metrics take the fastest sample; the record keeps the
       distribution too *)
    let tail_pct, tail_s = W.tail m.solve_s in
    let extra =
      [
        ("setup_samples", float_of_int (List.length m.setup_s));
        ("setup_median_s", W.median m.setup_s);
        ("solve_samples", float_of_int (List.length m.solve_s));
        ("solve_median_s", W.median m.solve_s);
        ("solve_tail_s", tail_s);
        ("solve_tail_pct", tail_pct);
      ]
    in
    (m.outcome, List.map (fun (spec : metric) -> (spec, List.assoc spec.name values)) end_to_end, extra)
  end
  else begin
    (* untraced reference passes: the first one warms up, the others
       time the same work the traced pass does, through the same Dae.t
       wrappers, so trace_overhead is the cost of telemetry and spans
       alone *)
    let passes =
      W.repeat ~budget:ctx.seconds ~min_runs:3 ~keep:(fun _ -> None) (fun _ -> w.pass ctx ~wrap:Ledger.wrap)
    in
    Option.iter (fun msg -> failwith ("untraced pass failed: " ^ msg)) (List.find_map (fun s -> s.W.error) passes);
    let untraced_wall_s = W.median (List.tl (W.secs passes)) in
    let check, ledger = Ledger.traced (fun () -> w.pass ctx ~wrap:Ledger.wrap) in
    let o = check () in
    print_ledger ledger;
    let figure name =
      Option.value ~default:0.
        (List.find_map (fun (f : W.figure) -> if f.name = name then Some f.value else None) o.figures)
    in
    let env = { ledger; untraced_wall_s; figure } in
    let values = List.map (fun (spec, f) -> (spec, f env)) per_layer in
    (* the rows must partition the traced wall time *)
    let tolerance = 1e-3 *. ledger.wall_s in
    let partition_ok =
      ledger.unattributed_s >= -.tolerance && Array.for_all (fun s -> s >= -.tolerance) ledger.self_s
    in
    let o =
      {
        o with
        attempted = o.attempted + 1;
        failed = (o.failed + if partition_ok then 0 else 1);
        failures = (o.failures @ if partition_ok then [] else [ "ledger rows do not partition the traced wall" ]);
      }
    in
    (o, values, [ ("untraced_pass_s", untraced_wall_s) ])
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long the timed phase runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--smoke", Arg.Set smoke, " cut-down workloads (self-test)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let jobs = if !trace = 1 then w.traced_jobs else w.jobs in
  Par.Pool.set_jobs jobs;
  let ctx = { W.seed = !seed; seconds = !seconds; smoke = !smoke } in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d%s\n%!" w.name !seed !seconds !trace
    (if !smoke then " smoke" else "");
  let o, values, extra = run w ctx ~trace:!trace in
  List.iter (fun (f : W.figure) -> Printf.printf "#   %-28s %14.6g %s\n" f.name f.value f.unit) o.figures;
  List.iter (fun (k, v) -> Printf.printf "#   %-28s %14.6g\n" k v) extra;
  List.iter (fun ((s : metric), v) -> Printf.printf "# %-32s %16.8g %s\n" s.name v s.unit) values;
  List.iter (fun msg -> Printf.printf "# FAILED: %s\n" msg) o.failures;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  let record =
    obj
      [
        ("perfbench", json_str "record");
        ("context", obj (context ~workload:w.name ~seed:!seed ~seconds:!seconds ~trace:!trace ~jobs));
        ("figures", obj (List.map (fun (f : W.figure) -> (f.name, value_json f.value f.unit)) o.figures));
        ("extra", obj (List.map (fun (k, v) -> (k, num v)) extra));
        ("failures", "[" ^ String.concat "," (List.map json_str o.failures) ^ "]");
      ]
  in
  print_endline record;
  let correct = o.failed = 0 && o.attempted > 0 && finite in
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int o.failed);
         ( "metrics",
           obj
             (List.map
                (fun ((s : metric), v) -> (s.name, value_json (if Float.is_finite v then v else 0.) s.unit))
                values) );
       ])
