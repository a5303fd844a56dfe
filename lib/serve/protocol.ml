module Obs = Wampde_obs
module Json = Obs.Json

let schema = "wampde.serve/2"

type envelope_params = {
  t_end : float;
  h2 : float option;
  rtol : float;
  n1 : int;
  solver : Linalg.Structured.strategy;
}

type quasi_params = {
  n1 : int;
  n2 : int;
  p2 : float;
  solver : Linalg.Structured.strategy;
}

type analysis = Envelope of envelope_params | Quasiperiodic of quasi_params

type job = { id : string; circuit : string; analysis : analysis; deadline_ms : float option }

type request =
  | Submit of job
  | Cancel of string
  | Metrics
  | Stats
  | Shutdown of { drain : bool }

type error = { code : string; message : string }

let analysis_name = function Envelope _ -> "envelope" | Quasiperiodic _ -> "quasiperiodic"

(* ---------- parsing ---------- *)

let ( let* ) = Result.bind
let err code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

let str_field key j =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match Json.to_str v with
    | Some s -> Ok (Some s)
    | None -> err "bad-field" "field %S must be a string" key)

let num_field key j =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match Json.to_num v with
    | Some x when Float.is_finite x -> Ok (Some x)
    | Some _ -> err "bad-value" "field %S must be finite" key
    | None -> err "bad-field" "field %S must be a number" key)

let required key = function
  | Some v -> Ok v
  | None -> err "missing-field" "required field %S is missing" key

let positive key x =
  if x > 0. then Ok x else err "bad-value" "field %S must be positive (got %g)" key x

let odd_int key lo hi x =
  if Float.is_integer x && x >= float_of_int lo && x <= float_of_int hi then
    let n = int_of_float x in
    if n land 1 = 1 then Ok n
    else err "bad-value" "field %S must be odd (got %d)" key n
  else err "bad-value" "field %S must be an odd integer in [%d, %d]" key lo hi

let id_ok s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       s

(* "gmres" is the older name of the matrix-free path, kept so earlier
   requests still parse *)
let parse_strategy = function
  | None -> Ok Linalg.Structured.auto
  | Some "auto" -> Ok Linalg.Structured.auto
  | Some "dense" -> Ok Linalg.Structured.Dense
  | Some ("krylov" | "gmres") -> Ok Linalg.Structured.Krylov
  | Some s -> err "bad-value" "unknown solver %S (use dense, krylov or auto)" s

let parse_envelope j =
  let* t_end = Result.bind (num_field "t_end" j) (required "t_end") in
  let* t_end = positive "t_end" t_end in
  let* t_end =
    if t_end <= 1e6 then Ok t_end else err "bad-value" "field \"t_end\" too large (got %g)" t_end
  in
  let* h2 = num_field "h2" j in
  let* h2 =
    match h2 with
    | None -> Ok None
    | Some x ->
      let* x = positive "h2" x in
      Ok (Some x)
  in
  let* rtol = num_field "rtol" j in
  let rtol = Option.value rtol ~default:1e-4 in
  let* rtol =
    if rtol >= 1e-12 && rtol <= 0.1 then Ok rtol
    else err "bad-value" "field \"rtol\" must lie in [1e-12, 0.1] (got %g)" rtol
  in
  let* n1 = num_field "n1" j in
  let* n1 = odd_int "n1" 3 201 (Option.value n1 ~default:25.) in
  let* solver = Result.bind (str_field "solver" j) parse_strategy in
  Ok (Envelope { t_end; h2; rtol; n1; solver })

let parse_quasi j =
  let* n1 = num_field "n1" j in
  let* n1 = odd_int "n1" 3 201 (Option.value n1 ~default:25.) in
  let* n2 = num_field "n2" j in
  let* n2 = odd_int "n2" 3 201 (Option.value n2 ~default:15.) in
  let* p2 = num_field "p2" j in
  let* p2 = positive "p2" (Option.value p2 ~default:40.) in
  let* () =
    match List.find_opt (fun key -> Json.member key j <> None) [ "t_warm"; "h2_warm" ] with
    | Some key -> err "bad-field" "field %S was removed in %s: the warm-up has one start" key schema
    | None -> Ok ()
  in
  let* solver = Result.bind (str_field "solver" j) parse_strategy in
  Ok (Quasiperiodic { n1; n2; p2; solver })

let parse_job j =
  let* id = Result.bind (str_field "id" j) (required "id") in
  let* id =
    if id_ok id then Ok id
    else err "bad-id" "job id must be 1-64 chars of [A-Za-z0-9._-] (got %S)" id
  in
  let* circuit = Result.bind (str_field "circuit" j) (required "circuit") in
  let* circuit =
    if circuit <> "" then Ok circuit else err "bad-value" "field \"circuit\" must be non-empty"
  in
  let* analysis = Result.bind (str_field "analysis" j) (required "analysis") in
  let* analysis =
    match analysis with
    | "envelope" -> parse_envelope j
    | "quasiperiodic" | "quasi" -> parse_quasi j
    | s -> err "bad-value" "unknown analysis %S (use envelope or quasiperiodic)" s
  in
  let* deadline_ms = num_field "deadline_ms" j in
  let* deadline_ms =
    match deadline_ms with
    | None -> Ok None
    | Some x ->
      let* x = positive "deadline_ms" x in
      Ok (Some x)
  in
  Ok (Submit { id; circuit; analysis; deadline_ms })

let parse_request line =
  match Json.parse line with
  | Error msg -> err "bad-json" "%s" msg
  | Ok (Json.Obj _ as j) -> (
    match Json.member "type" j with
    | None -> err "missing-type" "request object has no \"type\" field"
    | Some (Json.Str "job") -> parse_job j
    | Some (Json.Str "cancel") ->
      let* id = Result.bind (str_field "id" j) (required "id") in
      Ok (Cancel id)
    | Some (Json.Str "metrics") -> Ok Metrics
    | Some (Json.Str "stats") -> Ok Stats
    | Some (Json.Str "shutdown") -> (
      match Json.member "drain" j with
      | None -> Ok (Shutdown { drain = true })
      | Some (Json.Bool b) -> Ok (Shutdown { drain = b })
      | Some _ -> err "bad-field" "field \"drain\" must be a boolean")
    | Some (Json.Str t) -> err "unknown-type" "unknown request type %S" t
    | Some _ -> err "bad-field" "field \"type\" must be a string")
  | Ok _ -> err "not-object" "each request line must be a single JSON object"

(* ---------- response encoders ---------- *)

(* a JSON string literal, quotes included *)
let str s = Json.to_string (Json.Str s)

let num x = if Float.is_finite x then Printf.sprintf "%.10g" x else "null"

let hello ~quantum ~jobs =
  Printf.sprintf "{\"type\":\"hello\",\"schema\":%s,\"quantum\":%d,\"jobs\":%d}" (str schema)
    quantum jobs

let accepted ~id ~queue_depth =
  Printf.sprintf "{\"type\":\"accepted\",\"id\":%s,\"queue_depth\":%d}" (str id) queue_depth

let recovered ~id ~resumed ~queue_depth =
  Printf.sprintf "{\"type\":\"recovered\",\"id\":%s,\"resumed\":%b,\"queue_depth\":%d}"
    (str id) resumed queue_depth

let error_line ?line ?id { code; message } =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"type\":\"error\"";
  (match id with
  | Some id -> Buffer.add_string b (Printf.sprintf ",\"id\":%s" (str id))
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"code\":%s,\"message\":%s" (str code) (str message));
  (match line with
  | Some n -> Buffer.add_string b (Printf.sprintf ",\"line\":%d" n)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let job_error ?flight ~id ~kind ~message ~quanta () =
  let b = Buffer.create 160 in
  Printf.bprintf b "{\"type\":\"job-error\",\"id\":%s,\"kind\":%s,\"message\":%s,\"quanta\":%d"
    (str id) (str kind) (str message) quanta;
  (match flight with
  | Some path -> Printf.bprintf b ",\"flight\":%s" (str path)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

type summary = {
  analysis : string;
  wall_s : float;
  steps : int;
  quanta : int;
  preemptions : int;
  restarts : int;
  t2_end : float;
  omega_end : float;
}

let result ~id ~summary:s ~manifest =
  Printf.sprintf
    "{\"type\":\"result\",\"id\":%s,\"analysis\":%s,\"wall_s\":%s,\"steps\":%d,\"quanta\":%d,\"preemptions\":%d,\"restarts\":%d,\"t2_end\":%s,\"omega_end\":%s,\"manifest\":%s}"
    (str id) (str s.analysis) (num s.wall_s) s.steps s.quanta s.preemptions s.restarts
    (num s.t2_end) (num s.omega_end) manifest

let metrics_line ~final ~metrics =
  Printf.sprintf "{\"type\":\"metrics\",\"final\":%b,\"metrics\":%s}" final metrics

(* Daemon-wide operational stats as one grouped response: warm-cache
   hit rates, domain-pool utilization, health-warning counts and the
   scheduler's own counters — the numbers an operator polls without
   wanting the full metrics snapshot. *)
let stats_line ~counters ~gauges =
  let with_prefix p l =
    let pl = String.length p in
    List.filter_map
      (fun (n, v) ->
        if String.length n > pl && String.sub n 0 pl = p then
          Some (String.sub n pl (String.length n - pl), v)
        else None)
      l
  in
  let obj l =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (str k) v) l)
    ^ "}"
  in
  let int_obj p = obj (List.map (fun (k, v) -> (k, string_of_int v)) (with_prefix p counters)) in
  let mixed p =
    obj
      (List.map (fun (k, v) -> (k, string_of_int v)) (with_prefix p counters)
      @ List.map (fun (k, v) -> (k, num v)) (with_prefix p gauges))
  in
  let warnings = match List.assoc_opt "health.warnings" counters with Some n -> n | None -> 0 in
  Printf.sprintf
    "{\"type\":\"stats\",\"cache\":{\"orbit\":%s},\"pool\":%s,\"health\":{\"warnings\":%d,\"monitors\":%s},\"serve\":%s}"
    (int_obj "cache.orbit.") (mixed "pool.") warnings
    (int_obj "health.warnings.") (mixed "serve.")

let bye ~submitted ~completed ~failed ~cancelled ~preempted =
  Printf.sprintf
    "{\"type\":\"bye\",\"submitted\":%d,\"completed\":%d,\"failed\":%d,\"cancelled\":%d,\"preempted\":%d}"
    submitted completed failed cancelled preempted
