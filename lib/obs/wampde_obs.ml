(* Solver telemetry and run diagnostics: metrics registry with scoped
   cost accounting, span tracing with GC/allocation attribution, typed
   solver events (one field list each, [Events.fields]), health
   monitors, the NDJSON progress stream, a Chrome/Perfetto trace-event
   exporter, the run report (manifest) with its doctor, and the flight
   recorder.  This library sits below every solver layer (it depends
   only on [unix] for the wall clock), so any module can report work
   without creating dependency cycles.

   Everything is off by default: counters and events are gated on one
   global flag, spans on the presence of a sink, so the hot-path cost
   of an uninstrumented run is a single branch per call site. *)

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* Wall clock.  [Unix.gettimeofday] is NOT monotonic: NTP slews and
   clock adjustments can move it backwards, which would make span
   durations negative.  The OCaml [unix] binding exposes no
   CLOCK_MONOTONIC without C stubs, so the C-free choice here is to
   make the wall clock monotone by clamping: a reading that went
   backwards returns the latest reading seen instead.  Under a
   backwards clock step, durations are truncated toward zero rather
   than going negative; forward steps are indistinguishable from slow
   spans either way. *)
let last_now = ref neg_infinity

let now () =
  let t = Unix.gettimeofday () in
  if t > !last_now then last_now := t;
  !last_now

(* Innermost scoped cost-accounting label; "" means unscoped.  One
   cell per domain, so scoped code on two domains never sees the
   other's label; a spawned domain starts unscoped.  Lives at top level
   (before [Metrics]) so counter updates can read it without a module
   cycle; the public API is [Scope] below. *)
let scope_key = Domain.DLS.new_key (fun () -> ref "")
let[@inline] cur_scope () = Domain.DLS.get scope_key

(* Start of the trace clock: spans and the trace's event records are
   timed from here.  Set when a span sink is installed; top level so
   [Events] can put its records on the same clock as [Span]. *)
let trace_epoch = ref 0.

(* ------------------------------------------------------------------ *)
(* JSON helpers (no external dependency)                               *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity literals; stringify non-finite values. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else Printf.sprintf "\"%s\"" (if Float.is_nan v then "nan" else if v > 0. then "inf" else "-inf")

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

  let parse_exn (s : string) : t =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos < len then s.[!pos] else '\000' in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then error "expected %C at offset %d" c !pos;
      advance ()
    in
    let literal word v =
      if !pos + String.length word <= len && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else error "bad literal at offset %d" !pos
    in
    let hex4 () =
      if !pos + 4 > len then error "truncated \\u escape at offset %d" !pos;
      let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      match v with Some v -> v | None -> error "bad \\u escape at offset %d" (!pos - 4)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then error "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= len then error "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             let cp = hex4 () in
             let cp =
               (* surrogate pair *)
               if cp >= 0xD800 && cp <= 0xDBFF
                  && !pos + 1 < len && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 if lo >= 0xDC00 && lo <= 0xDFFF then
                   0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                 else error "bad low surrogate at offset %d" !pos
               end
               else cp
             in
             (match Uchar.of_int cp with
              | u -> Buffer.add_utf_8_uchar buf u
              | exception Invalid_argument _ -> Buffer.add_string buf "\xef\xbf\xbd")
           | c -> error "bad escape \\%c at offset %d" c (!pos - 1));
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < len
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        advance ()
      done;
      let str = String.sub s start (!pos - start) in
      match float_of_string_opt str with
      | Some v -> Num v
      | None -> error "bad number %S at offset %d" str start
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let entries = ref [] in
          let field () =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            entries := (k, v) :: !entries
          in
          field ();
          skip_ws ();
          while peek () = ',' do
            advance ();
            field ();
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !entries)
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | c -> error "unexpected %C at offset %d" c !pos
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then error "trailing content at offset %d" !pos;
    v

  let parse s = try Ok (parse_exn s) with Error m -> Result.Error m

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
  let to_num = function Num v -> Some v | _ -> None
  let to_str = function Str v -> Some v | _ -> None

  let rec to_string = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Num v -> json_float v
    | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
    | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
    | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (to_string v)) kvs)
      ^ "}"
end

module Metrics = struct
  type counter = { mutable n : int; mutable by_scope : (string * int ref) list }
  type gauge = { mutable v : float }

  (* log2 buckets: index i counts values in [2^(i-offset), 2^(i-offset+1)) *)
  let n_buckets = 64
  let bucket_offset = 16

  type histogram = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  type hist_stats = {
    count : int;
    sum : float;
    min : float;  (** 0 when empty *)
    max : float;  (** 0 when empty *)
    mean : float;  (** 0 when empty *)
    buckets : (float * float * int) list;  (** (lo, hi, count), non-empty buckets only *)
  }

  type metric = C of counter | G of gauge | H of histogram

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

  let counter name =
    match Hashtbl.find_opt registry name with
    | Some (C c) -> c
    | Some _ -> invalid_arg (Printf.sprintf "Wampde_obs.Metrics.counter: %s is not a counter" name)
    | None ->
      let c = { n = 0; by_scope = [] } in
      Hashtbl.replace registry name (C c);
      c

  let gauge name =
    match Hashtbl.find_opt registry name with
    | Some (G g) -> g
    | Some _ -> invalid_arg (Printf.sprintf "Wampde_obs.Metrics.gauge: %s is not a gauge" name)
    | None ->
      let g = { v = 0. } in
      Hashtbl.replace registry name (G g);
      g

  let histogram name =
    match Hashtbl.find_opt registry name with
    | Some (H h) -> h
    | Some _ ->
      invalid_arg (Printf.sprintf "Wampde_obs.Metrics.histogram: %s is not a histogram" name)
    | None ->
      let h =
        { counts = Array.make n_buckets 0; total = 0; sum = 0.; min_v = infinity; max_v = neg_infinity }
      in
      Hashtbl.replace registry name (H h);
      h

  (* Every enabled counter update is additionally bucketed under the
     innermost active scope label (possibly ""), so sum-over-scopes
     always equals the unscoped total.  The lookup returns the cell
     itself, or [no_cell] for a scope not seen yet, so an update in a
     known scope allocates nothing. *)
  let no_cell = ref 0

  let rec scope_cell s = function
    | [] -> no_cell
    | (s', r) :: rest -> if String.equal s s' then r else scope_cell s rest

  let bump c k =
    c.n <- c.n + k;
    let s = !(cur_scope ()) in
    let r = scope_cell s c.by_scope in
    if r != no_cell then r := !r + k else c.by_scope <- (s, ref k) :: c.by_scope

  let incr c = if !enabled_flag then bump c 1
  let add c k = if !enabled_flag then bump c k
  let count c = c.n
  let set g v = if !enabled_flag then g.v <- v
  let value g = g.v

  let bucket_index v =
    if v <= 0. then 0
    else begin
      let _, e = Float.frexp v in
      (* v in [2^(e-1), 2^e) *)
      let i = e - 1 + bucket_offset in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  let bucket_lo i = Float.ldexp 1. (i - bucket_offset)

  let observe h v =
    if !enabled_flag then begin
      h.total <- h.total + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let i = bucket_index v in
      h.counts.(i) <- h.counts.(i) + 1
    end

  let stats h =
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then buckets := (bucket_lo i, bucket_lo (i + 1), h.counts.(i)) :: !buckets
    done;
    {
      count = h.total;
      sum = h.sum;
      min = (if h.total = 0 then 0. else h.min_v);
      max = (if h.total = 0 then 0. else h.max_v);
      mean = (if h.total = 0 then 0. else h.sum /. float_of_int h.total);
      buckets = !buckets;
    }

  let mean h = if h.total = 0 then 0. else h.sum /. float_of_int h.total

  let reset () =
    Hashtbl.iter
      (fun _ m ->
        match m with
        | C c ->
          c.n <- 0;
          c.by_scope <- []
        | G g -> g.v <- 0.
        | H h ->
          Array.fill h.counts 0 n_buckets 0;
          h.total <- 0;
          h.sum <- 0.;
          h.min_v <- infinity;
          h.max_v <- neg_infinity)
      registry

  let sorted_names () =
    Hashtbl.fold (fun name _ acc -> name :: acc) registry [] |> List.sort String.compare

  let counters () =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt registry name with Some (C c) -> Some (name, c.n) | _ -> None)
      (sorted_names ())

  let gauges () =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt registry name with Some (G g) -> Some (name, g.v) | _ -> None)
      (sorted_names ())

  let histograms () =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt registry name with Some (H h) -> Some (name, stats h) | _ -> None)
      (sorted_names ())

  let scoped_counters () =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt registry name with
        | Some (C c) when c.by_scope <> [] ->
          Some
            ( name,
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (List.map (fun (s, r) -> (s, !r)) c.by_scope) )
        | _ -> None)
      (sorted_names ())

  (* Snapshot every registered metric, run [f] against a zeroed
     registry, then put the saved values back (metrics first
     registered inside [f] are left registered but zeroed).  The
     enabled flag and the active scope label are isolated too, so
     concurrent test suites cannot contaminate each other through the
     process-global registry. *)
  type saved_value =
    | SC of int * (string * int) list
    | SG of float
    | SH of int array * int * float * float * float

  let with_isolated f =
    let saved =
      Hashtbl.fold
        (fun name m acc ->
          let s =
            match m with
            | C c -> SC (c.n, List.map (fun (k, r) -> (k, !r)) c.by_scope)
            | G g -> SG g.v
            | H h -> SH (Array.copy h.counts, h.total, h.sum, h.min_v, h.max_v)
          in
          (name, s) :: acc)
        registry []
    in
    let enabled0 = !enabled_flag in
    let scope0 = !(cur_scope ()) in
    reset ();
    Fun.protect
      ~finally:(fun () ->
        enabled_flag := enabled0;
        cur_scope () := scope0;
        reset ();
        List.iter
          (fun (name, s) ->
            match (Hashtbl.find_opt registry name, s) with
            | Some (C c), SC (n, sc) ->
              c.n <- n;
              c.by_scope <- List.map (fun (k, v) -> (k, ref v)) sc
            | Some (G g), SG v -> g.v <- v
            | Some (H h), SH (counts, total, sum, mn, mx) ->
              Array.blit counts 0 h.counts 0 n_buckets;
              h.total <- total;
              h.sum <- sum;
              h.min_v <- mn;
              h.max_v <- mx
            | _ -> ())
          saved)
      f

  let table () =
    let buf = Buffer.create 512 in
    Buffer.add_string buf "== solver metrics ==\n";
    List.iter
      (fun name ->
        match Hashtbl.find_opt registry name with
        | Some (C c) -> Printf.bprintf buf "%-34s %14d\n" name c.n
        | Some (G g) -> Printf.bprintf buf "%-34s %14.6g\n" name g.v
        | Some (H h) ->
          let s = stats h in
          Printf.bprintf buf "%-34s count=%d min=%g max=%g mean=%g\n" name s.count s.min s.max
            s.mean
        | None -> ())
      (sorted_names ());
    Buffer.contents buf

  let scoped_table () =
    let buf = Buffer.create 512 in
    Buffer.add_string buf "== scoped cost accounting ==\n";
    List.iter
      (fun (name, scopes) ->
        List.iter
          (fun (scope, n) ->
            Printf.bprintf buf "%-34s %-20s %12d\n" name
              (if scope = "" then "(unscoped)" else scope)
              n)
          scopes)
      (scoped_counters ());
    Buffer.contents buf

  let to_json () =
    let buf = Buffer.create 512 in
    let field_block label items render =
      Printf.bprintf buf "\"%s\":{" label;
      List.iteri
        (fun i (name, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":%s" (json_escape name) (render x))
        items;
      Buffer.add_char buf '}'
    in
    Buffer.add_char buf '{';
    field_block "counters" (counters ()) string_of_int;
    Buffer.add_char buf ',';
    field_block "gauges" (gauges ()) json_float;
    Buffer.add_char buf ',';
    field_block "histograms" (histograms ()) (fun s ->
        Printf.sprintf "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"mean\":%s,\"buckets\":[%s]}"
          s.count (json_float s.sum) (json_float s.min) (json_float s.max) (json_float s.mean)
          (String.concat ","
             (List.map
                (fun (lo, hi, n) ->
                  Printf.sprintf "[%s,%s,%d]" (json_float lo) (json_float hi) n)
                s.buckets)));
    Buffer.add_char buf ',';
    field_block "scoped" (scoped_counters ()) (fun scopes ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (scope, n) -> Printf.sprintf "\"%s\":%d" (json_escape scope) n)
               scopes)
        ^ "}");
    Buffer.add_char buf '}';
    Buffer.contents buf
end

module Scope = struct
  let with_scope label f =
    let cell = cur_scope () in
    let saved = !cell in
    cell := label;
    Fun.protect ~finally:(fun () -> cell := saved) f

  let current () = !(cur_scope ())
end

(* Typed values shared by span attributes and solver-event fields, so
   every artifact that carries them (trace lines, stream, flight dump,
   Perfetto args) encodes them the same way. *)
type attr = Int of int | Float of float | Str of string | Bool of bool

let attr_json = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> string_of_bool b

let attrs_json attrs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, a) -> Printf.sprintf "\"%s\":%s" (json_escape k) (attr_json a)) attrs)
  ^ "}"

module Events = struct
  type t =
    | Newton_done of { solver : string; iterations : int; residual : float; converged : bool }
    | Step_accept of { t : float; h : float }
    | Step_reject of { t : float; h : float; reason : string }
    | Step_retry of { t : float; h : float; h_next : float; reason : string }
    | Phase_condition of { omega : float; t2 : float }
    | Strategy_escalated of { solver : string; from_ : string; to_ : string }
    | Health_warning of {
        monitor : string;
        value : float;
        threshold : float;
        t : float;
        hint : string;
      }

  type record = { t_s : float; scope : string; event : t }

  (* Records from the one-time-scale solvers -- the transient
     integrator's micro steps (a warmup or a baseline) and the periodic
     orbit that seeds a march -- describe no slow-time macro step.  The
     stream, the run report's history, the rejection monitor and the
     flight ring's snapshots skip them; the scoped counters still carry
     their work. *)
  let macro_scope scope = scope <> "transient" && scope <> "oscillator"

  (* ---------- the flight ring ---------- *)

  (* small metric snapshot taken at macro-step boundaries; reading a
     pre-looked-up counter is one field access, so a snapshot costs
     only its own cell *)
  type snap = {
    s_accepted : int;
    s_rejected : int;
    s_retried : int;
    s_newton : int;
    s_gmres : int;
    s_warnings : int;
  }

  type cell =
    | Record of record
    | Note of { at : float; kind : string; message : string }
    | Snapshot of float * snap

  let capacity = 512
  let empty = Note { at = 0.; kind = ""; message = "" }

  (* [capacity] cells, allocated by the first [Flight.clear], which also
     starts keeping emitted records; an overwrite of the oldest cell is
     then a store plus two index updates *)
  let ring : cell array ref = ref [||]
  let head = ref 0 (* next write position *)
  let stored = ref 0 (* valid cells, <= capacity *)
  let dropped = ref 0 (* cells overwritten after the ring filled *)
  let keeping = ref false

  let push cell =
    let cap = Array.length !ring in
    if cap > 0 then begin
      if !stored = cap then incr dropped else incr stored;
      !ring.(!head) <- cell;
      head := (!head + 1) mod cap
    end

  let clear_ring () =
    head := 0;
    stored := 0;
    dropped := 0;
    if Array.length !ring = 0 then ring := Array.make capacity empty
    else Array.fill !ring 0 capacity empty;
    keeping := true

  (* the stored cells, oldest first *)
  let cells () =
    let cap = Array.length !ring and n = !stored in
    List.init n (fun i -> !ring.((!head - n + cap + i) mod cap))

  let c_accepted = Metrics.counter "step.accepted"
  let c_rejected = Metrics.counter "step.rejected"
  let c_retried = Metrics.counter "step.retried"
  let c_newton = Metrics.counter "newton.iterations"
  let c_gmres = Metrics.counter "gmres.iterations"
  let c_warn = Metrics.counter "health.warnings"

  let keep r =
    push (Record r);
    match r.event with
    | (Step_accept _ | Step_reject _ | Step_retry _) when macro_scope r.scope ->
      push
        (Snapshot
           ( r.t_s,
             {
               s_accepted = Metrics.count c_accepted;
               s_rejected = Metrics.count c_rejected;
               s_retried = Metrics.count c_retried;
               s_newton = Metrics.count c_newton;
               s_gmres = Metrics.count c_gmres;
               s_warnings = Metrics.count c_warn;
             } ))
    | _ -> ()

  (* ---------- dispatch ---------- *)

  type subscription = int

  let subscribers : (int * (record -> unit)) list ref = ref []
  let next_sub = ref 0

  let subscribe f =
    let id = !next_sub in
    incr next_sub;
    subscribers := !subscribers @ [ (id, f) ];
    id

  let unsubscribe id = subscribers := List.filter (fun (i, _) -> i <> id) !subscribers
  let active () = !enabled_flag && (!keeping || !subscribers <> [])

  let emit e =
    if active () then begin
      let r = { t_s = now (); scope = !(cur_scope ()); event = e } in
      if !keeping then keep r;
      List.iter (fun (_, f) -> f r) !subscribers
    end

  let fields = function
    | Newton_done { solver; iterations; residual; converged } ->
      ( "newton_done",
        [
          ("solver", Str solver);
          ("iterations", Int iterations);
          ("residual", Float residual);
          ("converged", Bool converged);
        ] )
    | Step_accept { t; h } -> ("step_accept", [ ("t", Float t); ("h", Float h) ])
    | Step_reject { t; h; reason } ->
      ("step_reject", [ ("t", Float t); ("h", Float h); ("reason", Str reason) ])
    | Step_retry { t; h; h_next; reason } ->
      ( "step_retry",
        [ ("t", Float t); ("h", Float h); ("h_next", Float h_next); ("reason", Str reason) ] )
    | Phase_condition { omega; t2 } -> ("phase_condition", [ ("omega", Float omega); ("t2", Float t2) ])
    | Strategy_escalated { solver; from_; to_ } ->
      ("strategy_escalated", [ ("solver", Str solver); ("from", Str from_); ("to", Str to_) ])
    | Health_warning { monitor; value; threshold; t; hint } ->
      ( "health_warning",
        [
          ("monitor", Str monitor);
          ("value", Float value);
          ("threshold", Float threshold);
          ("t", Float t);
          ("hint", Str hint);
        ] )

  (* the stream's event line: the event's own fields, no time *)
  let event_json e =
    let name, fs = fields e in
    attrs_json (("type", Str "event") :: ("event", Str name) :: fs)

  (* the trace line and the flight cell: the record's time relative to
     [t0], its scope, then the event's fields *)
  let record_json ~t0 r =
    let name, fs = fields r.event in
    attrs_json
      (("type", Str "event")
      :: ("t_s", Float (r.t_s -. t0))
      :: ("scope", Str r.scope) :: ("event", Str name) :: fs)

  let to_json r = record_json ~t0:!trace_epoch r
end

module Eta = Eta

(* ------------------------------------------------------------------ *)
(* Numerical-health monitors                                           *)
(* ------------------------------------------------------------------ *)

module Health = struct
  type thresholds = {
    spectral_tol : float;
    tail_tol : float;
    over_resolution : float;
    gmres_stagnation : float;
    gmres_plateau : float;
    gmres_plateau_min_iters : int;
    newton_rate : float;
    rejection_rate : float;
    rejection_window : int;
    cascade_pressure : float;
  }

  let default_thresholds =
    {
      spectral_tol = 1e-6;
      tail_tol = 1e-6;
      over_resolution = 0.75;
      gmres_stagnation = 0.5;
      gmres_plateau = 0.9;
      gmres_plateau_min_iters = 8;
      newton_rate = 0.9;
      rejection_rate = 0.3;
      rejection_window = 16;
      cascade_pressure = 0.25;
    }

  let cur = ref default_thresholds
  let thresholds () = !cur

  let g_tail = Metrics.gauge "health.tail_energy"
  let g_needed = Metrics.gauge "health.effective_harmonics"
  let g_avail = Metrics.gauge "health.harmonics_available"
  let g_newton = Metrics.gauge "health.newton_rate"
  let g_stag = Metrics.gauge "health.gmres_stagnation"
  let g_plateau = Metrics.gauge "health.gmres_plateau"
  let g_reject = Metrics.gauge "health.rejection_rate"
  let g_pressure = Metrics.gauge "health.cascade_pressure"
  let c_warnings = Metrics.counter "health.warnings"

  (* Edge-triggered warning state: monitor name -> was the previous
     observation strictly above its threshold?  A warning fires only on
     the below->above crossing; a value exactly equal to the threshold
     counts as below. *)
  let edge : (string, bool) Hashtbl.t = Hashtbl.create 8

  (* sliding window of the last [rejection_window] macro-step
     decisions; true = rejected or retried *)
  let window : bool array ref = ref [||]

  let win_pos = ref 0
  let win_count = ref 0
  let win_bad = ref 0
  let decisions = ref 0
  let escalations = ref 0

  let reset () =
    Hashtbl.reset edge;
    window := [||];
    win_pos := 0;
    win_count := 0;
    win_bad := 0;
    decisions := 0;
    escalations := 0

  let set_thresholds t =
    if t.rejection_window < 1 then
      invalid_arg "Wampde_obs.Health.set_thresholds: rejection_window must be >= 1";
    cur := t;
    reset ()

  (* The monitors, each with the doctor category it answers to and the
     hint its warning carries.  This table is the one place that names
     them: [check] takes the hint from here, and [Doctor] turns each
     monitor that fired into its finding. *)
  type monitor = { name : string; category : string; hint : string }

  let monitor category name hint = { name; category; hint }
  let tail_energy = monitor "t1_resolution" "t1_tail_energy" "t1 grid under-resolved: increase n1"
  let over_resolution = monitor "t1_resolution" "t1_over_resolution" "t1 grid over-resolved: decrease n1"

  let newton_rate =
    monitor "solver_quality" "newton_rate"
      "Newton contraction is slow: refresh the Jacobian more often or shrink h2"

  let gmres_stagnation =
    monitor "solver_quality" "gmres_stagnation"
      "GMRES is consuming a large fraction of its restart window: preconditioner quality is \
       degrading"

  let gmres_plateau =
    monitor "solver_quality" "gmres_plateau"
      "GMRES residual has plateaued: the preconditioned operator contracts near unity"

  let cascade_pressure =
    monitor "solver_quality" "cascade_pressure"
      "the globalization cascade escalates often: the base strategy is mismatched to this regime"

  let rejection_rate =
    monitor "stepping" "rejection_rate"
      "the step controller is rejecting or retrying many macro steps: loosen rtol or start with \
       a smaller h2"

  let monitors =
    [ tail_energy; over_resolution; newton_rate; gmres_stagnation; gmres_plateau; cascade_pressure; rejection_rate ]

  let fire m ~t ~value ~threshold =
    Metrics.incr c_warnings;
    Metrics.incr (Metrics.counter ("health.warnings." ^ m.name));
    if Events.active () then
      Events.emit
        (Events.Health_warning { monitor = m.name; value; threshold; t; hint = m.hint })

  let check m ~t ~value ~threshold =
    let above = Float.is_finite threshold && value > threshold in
    let was = match Hashtbl.find_opt edge m.name with Some b -> b | None -> false in
    Hashtbl.replace edge m.name above;
    if above && not was then fire m ~t ~value ~threshold

  let note_spectrum ?(t = nan) ~tail ~needed ~available () =
    if !enabled_flag then begin
      let th = !cur in
      Metrics.set g_tail tail;
      Metrics.set g_needed (float_of_int needed);
      Metrics.set g_avail (float_of_int available);
      check tail_energy ~t ~value:tail ~threshold:th.tail_tol;
      if available > 0 then
        check over_resolution ~t
          ~value:(1. -. (float_of_int needed /. float_of_int available))
          ~threshold:th.over_resolution
    end

  let note_newton ?(t = nan) ~iterations ~rate () =
    if !enabled_flag && Float.is_finite rate && iterations >= 1 then begin
      Metrics.set g_newton rate;
      (* a single-iteration "rate" is just the residual drop of one
         update; contraction needs at least two *)
      if iterations >= 2 then
        check newton_rate ~t ~value:rate ~threshold:(!cur).newton_rate
    end

  let note_gmres ?(t = nan) ~iterations ~restart ~converged ~reduction () =
    if !enabled_flag && restart > 0 then begin
      let th = !cur in
      let stagnation = float_of_int iterations /. float_of_int restart in
      Metrics.set g_stag stagnation;
      if Float.is_finite reduction then Metrics.set g_plateau reduction;
      (* a failed solve is stagnation whatever the iteration count *)
      let value =
        if converged then stagnation else Float.max stagnation (th.gmres_stagnation +. 1.)
      in
      check gmres_stagnation ~t ~value ~threshold:th.gmres_stagnation;
      if iterations >= th.gmres_plateau_min_iters && Float.is_finite reduction then
        check gmres_plateau ~t ~value:reduction ~threshold:th.gmres_plateau
    end

  let note_decision ?(t = nan) ~outcome () =
    if !enabled_flag && Events.macro_scope !(cur_scope ()) then begin
      let th = !cur in
      if Array.length !window <> th.rejection_window then begin
        window := Array.make th.rejection_window false;
        win_pos := 0;
        win_count := 0;
        win_bad := 0
      end;
      let w = !window in
      let bad = match outcome with `Accept -> false | `Reject | `Retry -> true in
      if !win_count = th.rejection_window then begin
        if w.(!win_pos) then decr win_bad
      end
      else incr win_count;
      w.(!win_pos) <- bad;
      if bad then incr win_bad;
      win_pos := (!win_pos + 1) mod th.rejection_window;
      incr decisions;
      let rate = float_of_int !win_bad /. float_of_int !win_count in
      Metrics.set g_reject rate;
      Metrics.set g_pressure (float_of_int !escalations /. float_of_int !decisions);
      if !win_count >= th.rejection_window then
        check rejection_rate ~t ~value:rate ~threshold:th.rejection_rate
    end

  let note_escalation ?(t = nan) () =
    if !enabled_flag then begin
      incr escalations;
      let p = float_of_int !escalations /. float_of_int (Int.max 1 !decisions) in
      Metrics.set g_pressure p;
      check cascade_pressure ~t ~value:p ~threshold:(!cur).cascade_pressure
    end
end

(* ------------------------------------------------------------------ *)
(* Bounded NDJSON progress stream                                      *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  let schema = "wampde.stream/1"
  let c_dropped = Metrics.counter "stream.dropped"

  type t = {
    write : string -> unit;
    flush : unit -> unit;
    heartbeat_s : float;
    min_progress_s : float;
    max_records : int;
    epoch : float;
    eta : Eta.t option;
    job : string option;  (* multiplexing tag spliced into every record *)
    mutable records : int;
    mutable truncated : bool;
    mutable last_write : float;
    mutable last_progress : float;
    mutable steps : int;
    mutable h : float;  (* size of the latest accepted step *)
    mutable finished : bool;
    mutable sub : Events.subscription option;
  }

  let wall s = now () -. s.epoch

  (* Every record is a one-line JSON object starting with '{'; the job
     tag rides as the first field so interleaved per-job streams on one
     shared channel stay separable. *)
  let decorate s line =
    match s.job with
    | None -> line
    | Some j ->
      Printf.sprintf "{\"job\":\"%s\",%s" (json_escape j)
        (String.sub line 1 (String.length line - 1))

  (* Bounded sink: once [max_records] non-terminal records are written,
     further ones are counted into [stream.dropped] after a single
     "truncated" marker.  The terminal record bypasses the cap (see
     [finish]) so a stream always ends in "done" or "error". *)
  let put s line =
    if not s.finished then begin
      if s.records < s.max_records then begin
        s.records <- s.records + 1;
        s.last_write <- now ();
        s.write (decorate s line)
      end
      else begin
        Metrics.incr c_dropped;
        if not s.truncated then begin
          s.truncated <- true;
          s.last_write <- now ();
          s.write
            (decorate s
               (Printf.sprintf "{\"type\":\"truncated\",\"t_s\":%s,\"records\":%d}"
                  (json_float (wall s)) s.records))
        end
      end
    end

  let progress s ~t2 ~omega =
    let frac, eta_s, rate =
      match s.eta with
      | Some e -> (Eta.fraction e, Eta.eta_s e, Eta.rate e)
      | None -> (nan, nan, nan)
    in
    put s
      (Printf.sprintf
         "{\"type\":\"progress\",\"t_s\":%s,\"t2\":%s,\"h2\":%s,\"steps\":%d,\"omega\":%s,\"frac\":%s,\"eta_s\":%s,\"rate\":%s}"
         (json_float (wall s)) (json_float t2) (json_float s.h) s.steps (json_float omega)
         (json_float frac) (json_float eta_s) (json_float rate));
    s.flush ()

  let handle s (r : Events.record) =
    (* micro steps of a univariate transient are not run progress; the
       heartbeat below still covers long warmups *)
    (if Events.macro_scope r.scope then
       match r.event with
       | Events.Step_accept { h; _ } ->
         s.steps <- s.steps + 1;
         s.h <- h
       | Events.Phase_condition { omega; t2 } ->
         (* emitted right after the accept it completes: the progress
            record pairs t2 with omega(t2) *)
         (match s.eta with
          | Some e -> Eta.update e ~now:(now ()) ~completed:t2
          | None -> ());
         if now () -. s.last_progress >= s.min_progress_s then begin
           s.last_progress <- now ();
           progress s ~t2 ~omega
         end
       | Events.Step_reject _ | Events.Step_retry _ | Events.Strategy_escalated _
       | Events.Health_warning _ ->
         put s (Events.event_json r.event);
         s.flush ()
       | Events.Newton_done _ -> ());
    if now () -. s.last_write >= s.heartbeat_s then begin
      put s
        (Printf.sprintf "{\"type\":\"heartbeat\",\"t_s\":%s,\"steps\":%d}"
           (json_float (wall s)) s.steps);
      s.flush ()
    end

  (* Suspend/resume the event subscription without touching the record
     trail: a scheduler multiplexing several job streams onto one
     channel keeps exactly one stream subscribed — the job whose
     quantum is running — so solver events are never attributed to a
     preempted job.  Both are idempotent. *)
  let suspend s =
    match s.sub with
    | Some id ->
      Events.unsubscribe id;
      s.sub <- None
    | None -> ()

  let resume s = if s.sub = None && not s.finished then s.sub <- Some (Events.subscribe (handle s))

  let start ?(heartbeat_s = 5.) ?(min_progress_s = 0.25) ?(max_records = 100_000) ?total
      ?(run = "") ?job ~write ~flush () =
    let t0 = now () in
    let eta =
      match total with
      | Some tt when Float.is_finite tt && tt > 0. -> Some (Eta.create ~total:tt ())
      | _ -> None
    in
    let s =
      {
        write;
        flush;
        heartbeat_s = Float.max 0.01 heartbeat_s;
        min_progress_s = Float.max 0. min_progress_s;
        max_records = Int.max 2 max_records;
        epoch = t0;
        eta;
        job;
        records = 0;
        truncated = false;
        last_write = t0;
        (* let the first accepted step emit a progress record at once *)
        last_progress = t0 -. min_progress_s;
        steps = 0;
        h = nan;
        finished = false;
        sub = None;
      }
    in
    put s
      (Printf.sprintf "{\"type\":\"start\",\"schema\":\"%s\",\"run\":\"%s\",\"total\":%s}"
         (json_escape schema) (json_escape run)
         (match total with Some t -> json_float t | None -> "null"));
    s.flush ();
    resume s;
    s

  (* Idempotent: the first call writes the terminal record and
     unsubscribes; later calls are no-ops, so an at_exit safety net can
     coexist with the normal shutdown path. *)
  let finish s ~ok ?error () =
    if not s.finished then begin
      suspend s;
      s.records <- s.records + 1;
      s.write
        (decorate s
           (if ok then
              Printf.sprintf "{\"type\":\"done\",\"t_s\":%s,\"steps\":%d,\"records\":%d}"
                (json_float (wall s)) s.steps s.records
            else
              Printf.sprintf "{\"type\":\"error\",\"error\":\"%s\",\"t_s\":%s,\"steps\":%d}"
                (json_escape (match error with Some e -> e | None -> "aborted"))
                (json_float (wall s)) s.steps));
      s.flush ();
      s.finished <- true
    end

end

module Span = struct
  type nonrec attr = attr = Int of int | Float of float | Str of string | Bool of bool

  type gc_delta = {
    minor_words : float;
    promoted_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  type record = {
    id : int;
    parent : int option;
    name : string;
    attrs : (string * attr) list;
    t_start : float;
    t_stop : float;
    gc : gc_delta option;
    tid : int;
        (* trace track: 1 = the calling domain, 1+w for pool worker w.
           Spans opened by [span] always carry 1; worker-side work is
           reported post-barrier through [emit_external]. *)
  }

  let recording = ref false
  let writer : (string -> unit) option ref = ref None
  let next_id = ref 0
  let stack : (int * float) list ref = ref []
  let completed : record list ref = ref []

  (* When on, each span snapshots [Gc.quick_stat] at entry and exit and
     records the allocation/collection deltas.  A [quick_stat] call is
     cheap (no heap traversal) but does allocate its result record, so
     this stays opt-in even when a sink is active. *)
  let gc_flag = ref false
  let set_gc_stats b = gc_flag := b

  let tracing () = !recording || !writer <> None

  let gc_json d =
    Printf.sprintf
      "{\"minor_words\":%s,\"promoted_words\":%s,\"major_words\":%s,\"minor_collections\":%d,\"major_collections\":%d}"
      (json_float d.minor_words) (json_float d.promoted_words) (json_float d.major_words)
      d.minor_collections d.major_collections

  (* words freshly allocated during the span (minor + direct-to-major;
     promoted words would be double counted) *)
  let allocated_words d = d.minor_words +. d.major_words -. d.promoted_words

  let parent_json = function None -> "null" | Some p -> string_of_int p

  let mark_start () = if not (tracing ()) then trace_epoch := now ()

  let start_recording () =
    mark_start ();
    completed := [];
    recording := true

  let stop_recording () =
    recording := false;
    let records = List.rev !completed in
    completed := [];
    records

  let set_writer w =
    (match w with Some _ -> mark_start () | None -> ());
    writer := w

  let gc_delta (s0 : Gc.stat) (s1 : Gc.stat) =
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
      minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    }

  let span ?(attrs = []) name f =
    if not (tracing ()) then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with (pid, _) :: _ -> Some pid | [] -> None in
      let g0 = if !gc_flag then Some (Gc.quick_stat ()) else None in
      let t0 = now () -. !trace_epoch in
      stack := (id, t0) :: !stack;
      (match !writer with
       | Some w ->
         w
           (Printf.sprintf "{\"type\":\"span_start\",\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"t_s\":%s,\"attrs\":%s}"
              id (parent_json parent) (json_escape name) (json_float t0) (attrs_json attrs))
       | None -> ());
      Fun.protect f ~finally:(fun () ->
          let t1 = now () -. !trace_epoch in
          let gc = match g0 with None -> None | Some s0 -> Some (gc_delta s0 (Gc.quick_stat ())) in
          (match !stack with
           | (sid, _) :: rest when sid = id -> stack := rest
           | _ -> stack := List.filter (fun (sid, _) -> sid <> id) !stack);
          (match !writer with
           | Some w ->
             let gc_field = match gc with None -> "" | Some d -> ",\"gc\":" ^ gc_json d in
             w
               (Printf.sprintf "{\"type\":\"span_stop\",\"id\":%d,\"name\":\"%s\",\"t_s\":%s,\"dur_s\":%s%s}"
                  id (json_escape name) (json_float t1) (json_float (t1 -. t0)) gc_field)
           | None -> ());
          if !recording then
            completed :=
              { id; parent; name; attrs; t_start = t0; t_stop = t1; gc; tid = 1 } :: !completed)
    end

  (* Report a span that ran on another domain.  Pool workers must not
     touch this module's global state (plain refs, no synchronization),
     so they only write wall-clock readings into caller-owned arrays;
     the calling domain turns them into records here, after the
     barrier.  [t_start]/[t_stop] are absolute [Unix.gettimeofday]
     readings; [tid] picks the trace track (1 = the calling domain,
     1+w for worker w). *)
  let emit_external ?(attrs = []) ~tid ~name ~t_start ~t_stop () =
    if tracing () then begin
      let id = !next_id in
      incr next_id;
      let t0 = t_start -. !trace_epoch and t1 = t_stop -. !trace_epoch in
      (match !writer with
       | Some w ->
         w
           (Printf.sprintf
              "{\"type\":\"span_start\",\"id\":%d,\"parent\":null,\"name\":\"%s\",\"t_s\":%s,\"tid\":%d,\"attrs\":%s}"
              id (json_escape name) (json_float t0) tid (attrs_json attrs));
         w
           (Printf.sprintf
              "{\"type\":\"span_stop\",\"id\":%d,\"name\":\"%s\",\"t_s\":%s,\"dur_s\":%s,\"tid\":%d}"
              id (json_escape name) (json_float t1) (json_float (t1 -. t0)) tid)
       | None -> ());
      if !recording then
        completed :=
          { id; parent = None; name; attrs; t_start = t0; t_stop = t1; gc = None; tid }
          :: !completed
    end

  (* Aggregate completed spans into a tree keyed by the name path from
     the root, e.g. envelope.simulate > envelope.step > newton.solve. *)
  type node = {
    mutable n_calls : int;
    mutable total : float;
    mutable alloc_w : float;  (* allocated words, when GC stats were on *)
    mutable gcs : int;  (* minor + major collections *)
    mutable children : (string * node) list;  (* insertion order *)
  }

  let tree_summary records =
    let by_id = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace by_id r.id r) records;
    let has_gc = List.exists (fun r -> r.gc <> None) records in
    let rec path r =
      match r.parent with
      | None -> [ r.name ]
      | Some p -> (
        match Hashtbl.find_opt by_id p with Some pr -> path pr @ [ r.name ] | None -> [ r.name ])
    in
    let root = { n_calls = 0; total = 0.; alloc_w = 0.; gcs = 0; children = [] } in
    let insert r =
      let rec go node = function
        | [] ->
          node.n_calls <- node.n_calls + 1;
          node.total <- node.total +. (r.t_stop -. r.t_start);
          (match r.gc with
           | None -> ()
           | Some d ->
             node.alloc_w <- node.alloc_w +. allocated_words d;
             node.gcs <- node.gcs + d.minor_collections + d.major_collections)
        | name :: rest ->
          let child =
            match List.assoc_opt name node.children with
            | Some c -> c
            | None ->
              let c = { n_calls = 0; total = 0.; alloc_w = 0.; gcs = 0; children = [] } in
              node.children <- node.children @ [ (name, c) ];
              c
          in
          go child rest
      in
      go root (path r)
    in
    List.iter insert records;
    let buf = Buffer.create 256 in
    Buffer.add_string buf "== span summary ==\n";
    let rec print indent (name, node) =
      Printf.bprintf buf "%s%-*s %8dx %10.4f s" indent
        (Int.max 1 (36 - String.length indent))
        name node.n_calls node.total;
      if has_gc then Printf.bprintf buf " %12.4g w %6d gc" node.alloc_w node.gcs;
      Buffer.add_char buf '\n';
      List.iter (print (indent ^ "  ")) node.children
    in
    List.iter (print "") root.children;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Chrome/Perfetto trace-event exporter                                *)
(* ------------------------------------------------------------------ *)

module Trace_event = struct
  (* Emits the Chrome trace-event JSON array format understood by
     ui.perfetto.dev and chrome://tracing: duration events as matched
     "B"/"E" pairs, solver events as instant ("i") events, timestamps
     in microseconds.  B/E pairs are generated by a depth-first walk
     of the reconstructed span tree, so they are balanced and properly
     nested by construction (trace viewers sort by ts anyway). *)

  let pid = 1
  let tid = 1

  let buf_args buf attrs =
    if attrs <> [] then Printf.bprintf buf ",\"args\":%s" (attrs_json attrs)

  let span_args (r : Span.record) =
    match r.gc with
    | None -> r.attrs
    | Some d ->
      r.attrs
      @ [
          ("alloc_words", Span.Float (Span.allocated_words d));
          ("minor_collections", Span.Int d.minor_collections);
          ("major_collections", Span.Int d.major_collections);
        ]

  let to_string ?(process_name = "wampde") ~spans ~events () =
    let buf = Buffer.create 4096 in
    Buffer.add_char buf '[';
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n"
    in
    sep ();
    Printf.bprintf buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
      pid tid (json_escape process_name);
    (* one named track per domain seen in the spans: tid 1 is the main
       domain, 1+w is pool worker w — multicore spans land on separate
       Perfetto tracks instead of overlapping on one *)
    let tids =
      List.sort_uniq compare (tid :: List.map (fun (r : Span.record) -> r.Span.tid) spans)
    in
    List.iter
      (fun t ->
        sep ();
        Printf.bprintf buf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
          pid t
          (if t = tid then "main" else Printf.sprintf "worker-%d" (t - tid)))
      tids;
    (* span tree: children by parent id, roots in start order *)
    let ids = Hashtbl.create 64 in
    List.iter (fun (r : Span.record) -> Hashtbl.replace ids r.Span.id ()) spans;
    let children = Hashtbl.create 64 in
    let roots = ref [] in
    List.iter
      (fun (r : Span.record) ->
        match r.Span.parent with
        | Some p when Hashtbl.mem ids p ->
          Hashtbl.replace children p (r :: (try Hashtbl.find children p with Not_found -> []))
        | _ -> roots := r :: !roots)
      spans;
    let sort_spans l =
      List.sort (fun (a : Span.record) b -> compare a.Span.t_start b.Span.t_start) l
    in
    let us t = t *. 1e6 in
    let rec emit (r : Span.record) =
      sep ();
      Printf.bprintf buf "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":%s,\"pid\":%d,\"tid\":%d"
        (json_escape r.Span.name)
        (json_float (us r.Span.t_start))
        pid r.Span.tid;
      buf_args buf (span_args r);
      Buffer.add_char buf '}';
      List.iter emit
        (sort_spans (try Hashtbl.find children r.Span.id with Not_found -> []));
      sep ();
      Printf.bprintf buf "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%s,\"pid\":%d,\"tid\":%d}"
        (json_escape r.Span.name)
        (json_float (us r.Span.t_stop))
        pid r.Span.tid
    in
    List.iter emit (sort_spans !roots);
    (* A run that opened zero spans and recorded zero events would
       otherwise serialize to the process_name metadata alone, which
       trace viewers reject as an empty trace; one synthetic instant at
       t = 0 keeps the file loadable. *)
    if spans = [] && events = [] then begin
      sep ();
      Printf.bprintf buf
        "{\"name\":\"trace_start\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":0,\"pid\":%d,\"tid\":%d,\"s\":\"t\"}"
        pid tid
    end;
    List.iter
      (fun (r : Events.record) ->
        let name, fields = Events.fields r.event in
        sep ();
        Printf.bprintf buf
          "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"s\":\"t\""
          (json_escape name)
          (json_float (us (r.t_s -. !trace_epoch)))
          pid tid;
        buf_args buf fields;
        Buffer.add_char buf '}')
      events;
    Buffer.add_string buf "\n]\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Run report: self-contained JSON manifest + markdown rendering       *)
(* ------------------------------------------------------------------ *)

(* Provenance block shared by run manifests and flight dumps: both
   kinds of evidence identify the producing run the same way, so a
   postmortem can be matched to its run report field-for-field. *)
let provenance_fields buf ~argv ~subcommand ~git ~jobs =
  Printf.bprintf buf "\"argv\":[%s],"
    (String.concat ","
       (List.map (fun a -> Printf.sprintf "\"%s\"" (json_escape a)) (Array.to_list argv)));
  Printf.bprintf buf "\"subcommand\":\"%s\"," (json_escape subcommand);
  Printf.bprintf buf "\"jobs\":%d," (max 1 jobs);
  Printf.bprintf buf "\"git\":%s,"
    (match git with Some g -> Printf.sprintf "\"%s\"" (json_escape g) | None -> "null");
  Printf.bprintf buf "\"ocaml\":\"%s\"," (json_escape Sys.ocaml_version);
  Printf.bprintf buf "\"unix_time\":%s," (json_float (Unix.time ()))

module Report = struct
  let schema = "wampde.run-report/1"

  type step = {
    t : float;
    h : float;
    omega : float option;
    newton_iterations : int;
    residual : float;
    outcome : string;  (* "accept" | "reject" | "retry" *)
    reason : string option;
  }

  (* Builds the per-macro-step history from the solver event records:
     each [Newton_done] adds its solve's iterations to a pending bucket
     that the next accept/reject/retry decision flushes into a step
     record; [Phase_condition] (emitted right after an accepted step)
     back-fills the frequency of the latest record. *)
  type collector = {
    mutable steps : step list;  (* newest first *)
    mutable pending_iters : int;
    mutable pending_residual : float;
    mutable sub : Events.subscription option;
  }

  let decision c ~t ~h ~outcome ~reason =
    c.steps <-
      {
        t;
        h;
        omega = None;
        newton_iterations = c.pending_iters;
        residual = c.pending_residual;
        outcome;
        reason;
      }
      :: c.steps;
    c.pending_iters <- 0;
    c.pending_residual <- nan

  (* The history records slow-time (macro) step decisions and the
     march's own solves: the transient integrator's micro-step decisions
     (thousands per warmup or baseline) and the orbit solve before the
     march are excluded (the scoped counters still carry their work). *)
  let handle c (r : Events.record) =
    if Events.macro_scope r.scope then
      match r.event with
      | Events.Newton_done { iterations; residual; _ } ->
        c.pending_iters <- c.pending_iters + iterations;
        c.pending_residual <- residual
      | Events.Step_accept { t; h } -> decision c ~t ~h ~outcome:"accept" ~reason:None
      | Events.Step_reject { t; h; reason } -> decision c ~t ~h ~outcome:"reject" ~reason:(Some reason)
      | Events.Step_retry { t; h; reason; _ } -> decision c ~t ~h ~outcome:"retry" ~reason:(Some reason)
      | Events.Phase_condition { omega; _ } -> (
        match c.steps with
        | ({ omega = None; _ } as s) :: rest -> c.steps <- { s with omega = Some omega } :: rest
        | _ -> ())
      | Events.Strategy_escalated _ | Events.Health_warning _ -> ()

  let collect () =
    let c = { steps = []; pending_iters = 0; pending_residual = nan; sub = None } in
    c.sub <- Some (Events.subscribe (handle c));
    c

  let finish c =
    (match c.sub with Some s -> Events.unsubscribe s | None -> ());
    c.sub <- None;
    List.rev c.steps

  let git_describe () =
    try
      let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with _ -> None

  let step_json s =
    Printf.sprintf
      "{\"t\":%s,\"h\":%s,\"omega\":%s,\"newton_iterations\":%d,\"residual\":%s,\"outcome\":\"%s\",\"reason\":%s}"
      (json_float s.t) (json_float s.h)
      (match s.omega with Some o -> json_float o | None -> "null")
      s.newton_iterations (json_float s.residual) (json_escape s.outcome)
      (match s.reason with Some r -> Printf.sprintf "\"%s\"" (json_escape r) | None -> "null")

  let manifest ?(argv = Sys.argv) ?(subcommand = "") ?git ?(jobs = 1) ~wall_s ~steps () =
    let buf = Buffer.create 4096 in
    let gc = Gc.quick_stat () in
    Buffer.add_char buf '{';
    Printf.bprintf buf "\"schema\":\"%s\"," (json_escape schema);
    provenance_fields buf ~argv ~subcommand ~git ~jobs;
    Printf.bprintf buf "\"wall_s\":%s," (json_float wall_s);
    Printf.bprintf buf
      "\"gc\":{\"minor_words\":%s,\"promoted_words\":%s,\"major_words\":%s,\"minor_collections\":%d,\"major_collections\":%d,\"heap_words\":%d},"
      (json_float gc.Gc.minor_words) (json_float gc.Gc.promoted_words)
      (json_float gc.Gc.major_words) gc.Gc.minor_collections gc.Gc.major_collections
      gc.Gc.heap_words;
    Printf.bprintf buf "\"metrics\":%s," (Metrics.to_json ());
    Printf.bprintf buf "\"history\":[%s]" (String.concat "," (List.map step_json steps));
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* ---------- validation ---------- *)

  let ( let* ) = Result.bind

  let require_obj what = function
    | Some (Json.Obj kvs) -> Ok kvs
    | Some _ -> Result.Error (Printf.sprintf "%s: not an object" what)
    | None -> Result.Error (Printf.sprintf "%s: missing" what)

  let require_num what = function
    | Some (Json.Num v) -> Ok v
    | Some (Json.Str _) -> Ok nan  (* stringified nan/inf *)
    | Some _ -> Result.Error (Printf.sprintf "%s: not a number" what)
    | None -> Result.Error (Printf.sprintf "%s: missing" what)

  let require_str what = function
    | Some (Json.Str v) -> Ok v
    | Some _ -> Result.Error (Printf.sprintf "%s: not a string" what)
    | None -> Result.Error (Printf.sprintf "%s: missing" what)

  let check_scoped_sums ~counters ~scoped =
    List.fold_left
      (fun acc (name, scopes) ->
        let* () = acc in
        match scopes with
        | Json.Obj entries ->
          let sum =
            List.fold_left
              (fun s (_, v) -> match v with Json.Num n -> s +. n | _ -> nan)
              0. entries
          in
          (match List.assoc_opt name counters with
           | Some (Json.Num total) ->
             if Float.abs (sum -. total) < 0.5 then Ok ()
             else
               Result.Error
                 (Printf.sprintf "scoped counter %s: sum over scopes %g <> total %g" name sum
                    total)
           | _ -> Result.Error (Printf.sprintf "scoped counter %s has no unscoped total" name))
        | _ -> Result.Error (Printf.sprintf "scoped counter %s: not an object" name))
      (Ok ()) scoped

  let check_history history =
    List.fold_left
      (fun acc entry ->
        let* () = acc in
        match entry with
        | Json.Obj _ ->
          let* _ = require_num "history.t" (Json.member "t" entry) in
          let* _ = require_num "history.h" (Json.member "h" entry) in
          let* _ = require_num "history.newton_iterations" (Json.member "newton_iterations" entry) in
          let* outcome = require_str "history.outcome" (Json.member "outcome" entry) in
          if List.mem outcome [ "accept"; "reject"; "retry" ] then Ok ()
          else Result.Error (Printf.sprintf "history.outcome: unknown value %S" outcome)
        | _ -> Result.Error "history entry: not an object")
      (Ok ()) history

  let validate (j : Json.t) =
    let* s = require_str "schema" (Json.member "schema" j) in
    let* () =
      if String.length s >= 17 && String.sub s 0 17 = "wampde.run-report" then Ok ()
      else Result.Error (Printf.sprintf "schema: unknown value %S" s)
    in
    let* _ =
      match Json.member "argv" j with
      | Some (Json.Arr _) -> Ok ()
      | Some _ -> Result.Error "argv: not an array"
      | None -> Result.Error "argv: missing"
    in
    let* _ = require_str "ocaml" (Json.member "ocaml" j) in
    let* _ = require_num "wall_s" (Json.member "wall_s" j) in
    let* gc = require_obj "gc" (Json.member "gc" j) in
    let* _ = require_num "gc.minor_words" (List.assoc_opt "minor_words" gc) in
    let* metrics = require_obj "metrics" (Json.member "metrics" j) in
    let* counters = require_obj "metrics.counters" (List.assoc_opt "counters" metrics) in
    let* scoped = require_obj "metrics.scoped" (List.assoc_opt "scoped" metrics) in
    let* () = check_scoped_sums ~counters ~scoped in
    let* history =
      match Json.member "history" j with
      | Some (Json.Arr l) -> Ok l
      | Some _ -> Result.Error "history: not an array"
      | None -> Result.Error "history: missing"
    in
    check_history history

  (* the manifest's JSON, once it parses and validates *)
  let parse_valid s =
    match Json.parse s with
    | Result.Error m -> Result.Error (Printf.sprintf "malformed JSON: %s" m)
    | Ok j -> Result.map (fun () -> j) (validate j)

  let check s = Result.map ignore (parse_valid s)

  (* ---------- markdown rendering ---------- *)

  let md_escape s =
    String.concat "\\|" (String.split_on_char '|' s)

  let history_rows_cap = 40

  let to_markdown s =
    match Json.parse s with
    | Result.Error m -> Result.Error (Printf.sprintf "malformed JSON: %s" m)
    | Ok j -> (
      match validate j with
      | Result.Error m -> Result.Error m
      | Ok () ->
        let buf = Buffer.create 4096 in
        let str_of key = Option.bind (Json.member key j) Json.to_str in
        let num_of key = Option.bind (Json.member key j) Json.to_num in
        Buffer.add_string buf "# wampde run report\n\n";
        Printf.bprintf buf "| field | value |\n|---|---|\n";
        let row k v = Printf.bprintf buf "| %s | %s |\n" k (md_escape v) in
        (match str_of "subcommand" with Some c when c <> "" -> row "subcommand" c | _ -> ());
        (match num_of "jobs" with
         | Some jv when jv > 1. -> row "jobs" (Printf.sprintf "%.0f" jv)
         | _ -> ());
        (match Json.member "argv" j with
         | Some (Json.Arr args) ->
           row "argv"
             (String.concat " " (List.filter_map Json.to_str args))
         | _ -> ());
        (match str_of "git" with Some g -> row "git" g | None -> row "git" "(unknown)");
        (match str_of "ocaml" with Some v -> row "ocaml" v | None -> ());
        (match num_of "wall_s" with
         | Some w -> row "wall" (Printf.sprintf "%.3f s" w)
         | None -> ());
        (match Json.member "gc" j with
         | Some gc ->
           let g k = Option.bind (Json.member k gc) Json.to_num in
           (match (g "minor_words", g "major_words", g "promoted_words") with
            | Some mi, Some ma, Some pr ->
              row "allocated" (Printf.sprintf "%.4g Mwords" ((mi +. ma -. pr) /. 1e6))
            | _ -> ());
           (match (g "minor_collections", g "major_collections") with
            | Some mi, Some ma -> row "collections" (Printf.sprintf "%.0f minor / %.0f major" mi ma)
            | _ -> ())
         | None -> ());
        Buffer.add_char buf '\n';
        let metrics = Json.member "metrics" j in
        (match Option.bind metrics (Json.member "counters") with
         | Some (Json.Obj counters) when counters <> [] ->
           Buffer.add_string buf "## Solver work\n\n| counter | total |\n|---|---|\n";
           List.iter
             (fun (name, v) ->
               match v with
               | Json.Num n when n <> 0. ->
                 Printf.bprintf buf "| %s | %.0f |\n" (md_escape name) n
               | _ -> ())
             counters;
           Buffer.add_char buf '\n'
         | _ -> ());
        (match Option.bind metrics (Json.member "scoped") with
         | Some (Json.Obj scoped) when scoped <> [] ->
           Buffer.add_string buf
             "## Scoped cost breakdown\n\n| counter | scope | count |\n|---|---|---|\n";
           List.iter
             (fun (name, v) ->
               match v with
               | Json.Obj entries ->
                 List.iter
                   (fun (scope, n) ->
                     match n with
                     | Json.Num n ->
                       Printf.bprintf buf "| %s | %s | %.0f |\n" (md_escape name)
                         (if scope = "" then "(unscoped)" else md_escape scope)
                         n
                     | _ -> ())
                   entries
               | _ -> ())
             scoped;
           Buffer.add_char buf '\n'
         | _ -> ());
        (match Json.member "history" j with
         | Some (Json.Arr entries) when entries <> [] ->
           let n = List.length entries in
           let count o =
             List.length
               (List.filter
                  (fun e -> Option.bind (Json.member "outcome" e) Json.to_str = Some o)
                  entries)
           in
           let nums key =
             List.filter_map (fun e -> Option.bind (Json.member key e) Json.to_num) entries
           in
           Printf.bprintf buf
             "## Step history\n\n%d decisions: %d accepted, %d rejected, %d retried" n
             (count "accept") (count "reject") (count "retry");
           (match nums "h" with
            | [] -> ()
            | hs ->
              Printf.bprintf buf "; h2 %.3g..%.3g" (List.fold_left Float.min infinity hs)
                (List.fold_left Float.max neg_infinity hs));
           (match nums "omega" with
            | [] -> ()
            | oms ->
              Printf.bprintf buf "; omega %.6g..%.6g" (List.fold_left Float.min infinity oms)
                (List.fold_left Float.max neg_infinity oms));
           Printf.bprintf buf "; %.0f Newton iterations total.\n\n"
             (List.fold_left ( +. ) 0. (nums "newton_iterations"));
           Buffer.add_string buf
             "| t2 | h2 | omega | newton | residual | outcome |\n|---|---|---|---|---|---|\n";
           List.iteri
             (fun i e ->
               if i < history_rows_cap then begin
                 let num k =
                   match Option.bind (Json.member k e) Json.to_num with
                   | Some v -> Printf.sprintf "%.6g" v
                   | None -> "—"
                 in
                 let outcome =
                   match Option.bind (Json.member "outcome" e) Json.to_str with
                   | Some o -> (
                     match Option.bind (Json.member "reason" e) Json.to_str with
                     | Some r -> Printf.sprintf "%s (%s)" o r
                     | None -> o)
                   | None -> "—"
                 in
                 Printf.bprintf buf "| %s | %s | %s | %s | %s | %s |\n" (num "t") (num "h")
                   (num "omega") (num "newton_iterations") (num "residual") (md_escape outcome)
               end)
             entries;
           if n > history_rows_cap then
             Printf.bprintf buf "\n… %d more rows in the manifest.\n" (n - history_rows_cap)
         | _ -> ());
        Ok (Buffer.contents buf))
end

(* ------------------------------------------------------------------ *)
(* Run doctor: turn a manifest (and optional stream) into a diagnosis  *)
(* ------------------------------------------------------------------ *)

module Doctor = struct
  type severity = Info | Warn

  type finding = {
    category : string;
    severity : severity;
    summary : string;
    suggestion : string option;
  }

  let severity_name = function Info -> "info" | Warn -> "warn"

  (* counters whose per-scope buckets proxy for where the run spent its
     effort; weights keep incommensurable units roughly comparable *)
  let work_counters =
    [ ("newton.iterations", 1.); ("gmres.iterations", 1.); ("lu.factor", 4.); ("transient.steps", 1.) ]

  let str_member k j = Option.bind (Json.member k j) Json.to_str

  let counter counters name =
    match Option.bind (List.assoc_opt name counters) Json.to_num with
    | Some v when Float.is_finite v -> v
    | _ -> 0.

  let gauge gauges name =
    match Option.bind (List.assoc_opt name gauges) Json.to_num with
    | Some v when Float.is_finite v -> Some v
    | _ -> None

  let metrics_section j name =
    match Option.bind (Json.member "metrics" j) (Json.member name) with
    | Some (Json.Obj kvs) -> kvs
    | _ -> []

  (* ---------- dominant cost scope ---------- *)

  let cost_finding j =
    let scoped = metrics_section j "scoped" in
    let tally : (string, float) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (name, weight) ->
        match List.assoc_opt name scoped with
        | Some (Json.Obj buckets) ->
          List.iter
            (fun (scope, v) ->
              match Json.to_num v with
              | Some n when Float.is_finite n && n > 0. ->
                let scope = if scope = "" then "unscoped" else scope in
                Hashtbl.replace tally scope
                  ((match Hashtbl.find_opt tally scope with Some x -> x | None -> 0.)
                  +. (weight *. n))
              | _ -> ())
            buckets
        | _ -> ())
      work_counters;
    let total = Hashtbl.fold (fun _ v acc -> acc +. v) tally 0. in
    if total <= 0. then
      {
        category = "cost";
        severity = Info;
        summary = "no scoped solver work recorded in this manifest";
        suggestion = Some "re-run with --metrics/--report so cost attribution is collected";
      }
    else begin
      let scope, work =
        Hashtbl.fold (fun k v ((_, bv) as best) -> if v > bv then (k, v) else best) tally ("", 0.)
      in
      let share = 100. *. work /. total in
      {
        category = "cost";
        severity = Info;
        summary =
          Printf.sprintf "dominant cost scope is %s (%.0f%% of weighted solver work)" scope share;
        suggestion = None;
      }
    end

  (* ---------- can the answer be trusted ---------- *)

  (* The measured facts of each trust category, as the manifest's last
     gauges and whole-run counters state them. *)
  let t1_facts gauges =
    match (gauge gauges "health.harmonics_available", gauge gauges "health.effective_harmonics") with
    | Some avail, Some needed when avail > 0. ->
      Printf.sprintf "t1 grid: %.0f of %.0f harmonics in use, tail energy %.2e at the last step"
        needed avail
        (Option.value ~default:0. (gauge gauges "health.tail_energy"))
    | _ -> "no spectral health gauges in this manifest"

  let solver_facts counters =
    let c = counter counters in
    let solves = c "gmres.solves" in
    let escalations = c "newton.strategy.escalations" +. c "controller.escalations" in
    (* a rejected dogleg step reuses the trust-region model *)
    let rejected = c "trust_region.rejected" in
    String.concat "; "
      (List.filter (( <> ) "")
         [
           (if solves <= 0. then "linear systems solved by the dense path (no GMRES activity)"
            else
              Printf.sprintf "GMRES %.1f iterations per solve, %.0f preconditioner fallback(s)"
                (c "gmres.iterations" /. solves) (c "gmres.precond.fallbacks"));
           (if escalations <= 0. then ""
            else Printf.sprintf "globalization cascade escalated %.0f time(s)" escalations);
           (if rejected <= 0. then ""
            else
              Printf.sprintf "trust region rejected %.0f of %.0f steps (model reused)" rejected
                (c "trust_region.iterations"));
         ])

  let stepping_facts counters =
    let accepted = counter counters "step.accepted"
    and rejected = counter counters "step.rejected"
    and retried = counter counters "step.retried" in
    if accepted +. rejected +. retried <= 0. then None
    else
      Some
        (Printf.sprintf "%.0f macro steps accepted, %.0f rejected, %.0f retried" accepted
           rejected retried)

  (* the n1 a t1 warning suggests: arithmetic on the last step's
     harmonic gauges, in the direction of the monitor's hint *)
  let suggested_n1 gauges (m : Health.monitor) =
    match (gauge gauges "health.harmonics_available", gauge gauges "health.effective_harmonics") with
    | Some avail, Some needed when avail > 0. ->
      let avail = int_of_float avail in
      if m == Health.tail_energy then
        (* headroom of about half the current band *)
        Some ((2 * (avail + Int.max 2 (avail / 2))) + 1)
      else if m == Health.over_resolution then
        let keep = Int.max 2 (int_of_float (Float.ceil (1.25 *. needed))) in
        if keep < avail then Some ((2 * keep) + 1) else None
      else None
    | _ -> None

  (* [Health] decides: each monitor whose [health.warnings.<monitor>]
     counter is nonzero gives one warning in its category, its hint the
     suggestion.  A category where no monitor fired gets one line of
     facts (stepping only once a step was decided). *)
  let trust_findings j =
    let counters = metrics_section j "counters" and gauges = metrics_section j "gauges" in
    List.concat_map
      (fun (category, facts) ->
        let fired =
          List.filter_map
            (fun (m : Health.monitor) ->
              let n = counter counters ("health.warnings." ^ m.name) in
              if m.category = category && n > 0. then Some (m, n) else None)
            Health.monitors
        in
        match (fired, facts) with
        | [], None -> []
        | [], Some summary -> [ { category; severity = Info; summary; suggestion = None } ]
        | _ ->
          List.map
            (fun ((m : Health.monitor), n) ->
              {
                category;
                severity = Warn;
                summary =
                  Printf.sprintf "health monitor %s fired %.0f time(s)%s" m.name n
                    (match facts with Some f -> ": " ^ f | None -> "");
                suggestion =
                  Some
                    (match suggested_n1 gauges m with
                     | Some n1 -> Printf.sprintf "%s to about %d" m.hint n1
                     | None -> m.hint);
              })
            fired)
      [
        ("t1_resolution", Some (t1_facts gauges));
        ("solver_quality", Some (solver_facts counters));
        ("stepping", stepping_facts counters);
      ]

  (* ---------- parallel efficiency ---------- *)

  let parallelism_findings j =
    let jobs =
      match Option.bind (Json.member "jobs" j) Json.to_num with
      | Some v when Float.is_finite v -> int_of_float v
      | _ -> 1
    in
    if jobs <= 1 then []
    else begin
      let gauges = metrics_section j "gauges" in
      let busy = Option.value ~default:0. (gauge gauges "pool.busy_s") in
      let idle = Option.value ~default:0. (gauge gauges "pool.idle_s") in
      let span = busy +. idle in
      if span <= 1e-9 then
        [
          {
            category = "parallelism";
            severity = Info;
            summary =
              Printf.sprintf
                "--jobs %d requested but the domain pool saw no measurable work" jobs;
            suggestion = Some "the run's kernels never went parallel; --jobs 1 costs nothing here";
          };
        ]
      else begin
        let idle_frac = idle /. span in
        if idle_frac > 0.4 then
          [
            {
              category = "parallelism";
              severity = Warn;
              summary =
                Printf.sprintf
                  "poor parallel efficiency: %.0f%% of pool worker time idle at --jobs %d"
                  (100. *. idle_frac) jobs;
              suggestion =
                Some
                  "lower --jobs: the per-block kernels are too small at this size to keep \
                   every worker busy";
            };
          ]
        else
          [
            {
              category = "parallelism";
              severity = Info;
              summary =
                Printf.sprintf
                  "parallel efficiency healthy: %.0f%% of pool worker time busy at --jobs %d"
                  (100. *. (1. -. idle_frac))
                  jobs;
              suggestion = None;
            };
          ]
      end
    end

  (* ---------- stream cross-check ---------- *)

  let stream_findings lines =
    let malformed = ref 0 in
    let terminal = ref None in
    let health = ref 0 in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then
          match Json.parse_exn line with
          | j -> (
            match str_member "type" j with
            | Some ("done" | "error" as t) -> terminal := Some (t, j)
            | Some "event" when str_member "event" j = Some "health_warning" -> incr health
            | _ -> ())
          | exception Json.Error _ -> incr malformed)
      lines;
    let base =
      if !malformed > 0 then
        [
          {
            category = "stream";
            severity = Warn;
            summary = Printf.sprintf "%d malformed NDJSON line(s) in the stream" !malformed;
            suggestion = Some "the stream writer was interrupted mid-record; treat tail data as suspect";
          };
        ]
      else []
    in
    let term =
      match !terminal with
      | Some ("error", j) ->
        [
          {
            category = "stream";
            severity = Warn;
            summary =
              Printf.sprintf "run aborted: %s"
                (match str_member "error" j with Some e -> e | None -> "unknown error");
            suggestion = None;
          };
        ]
      | Some ("done", _) -> []
      | _ ->
        [
          {
            category = "stream";
            severity = Warn;
            summary = "stream has no terminal record: the run did not shut down cleanly";
            suggestion = None;
          };
        ]
    in
    let hw =
      if !health > 0 then
        [
          {
            category = "stream";
            severity = Info;
            summary = Printf.sprintf "%d health warning(s) were emitted while the run progressed" !health;
            suggestion = None;
          };
        ]
      else []
    in
    base @ term @ hw

  (* ---------- entry points ---------- *)

  let diagnose ?stream_lines (j : Json.t) =
    let findings =
      (cost_finding j :: trust_findings j)
      @ parallelism_findings j
      @ (match stream_lines with Some ls -> stream_findings ls | None -> [])
    in
    let warns, infos = List.partition (fun f -> f.severity = Warn) findings in
    warns @ infos

  (* only a well-formed run manifest gets a diagnosis: any other JSON
     (a flight dump, a bare array) would read as a run with no work *)
  let diagnose_string ?stream contents =
    match Report.parse_valid contents with
    | Result.Error m -> Result.Error ("manifest: " ^ m)
    | Ok j -> Ok (diagnose ?stream_lines:(Option.map (String.split_on_char '\n') stream) j)

  let has_warnings findings = List.exists (fun f -> f.severity = Warn) findings

  let render findings =
    let buf = Buffer.create 512 in
    let warns = List.length (List.filter (fun f -> f.severity = Warn) findings) in
    Printf.bprintf buf "doctor: %d finding(s), %d warning(s)\n" (List.length findings) warns;
    List.iter
      (fun f ->
        Printf.bprintf buf "[%s] %s: %s\n" (severity_name f.severity) f.category f.summary;
        match f.suggestion with
        | Some s -> Printf.bprintf buf "  -> %s\n" s
        | None -> ())
      findings;
    Buffer.contents buf

  let to_json findings =
    let one f =
      Printf.sprintf "{\"category\":\"%s\",\"severity\":\"%s\",\"summary\":\"%s\",\"suggestion\":%s}"
        (json_escape f.category) (severity_name f.severity) (json_escape f.summary)
        (match f.suggestion with
         | Some s -> Printf.sprintf "\"%s\"" (json_escape s)
         | None -> "null")
    in
    Printf.sprintf "{\"schema\":\"wampde.doctor/1\",\"findings\":[%s]}"
      (String.concat "," (List.map one findings))
end

(* ------------------------------------------------------------------ *)
(* Flight recorder: bounded ring of recent telemetry for postmortems   *)
(* ------------------------------------------------------------------ *)

module Flight = struct
  let schema = "wampde.flightdump/1"

  (* The ring is [Events]' store of every emitted record; this module
     adds notes to it and serializes its tail. *)
  let clear = Events.clear_ring

  (* out-of-band marker (fault-harness trips, scheduler decisions);
     recorded even while telemetry is disabled so an injected fault is
     always on the timeline of the dump it caused *)
  let note ~kind message = Events.push (Events.Note { at = now (); kind; message })

  let cell_time = function
    | Events.Record r -> r.Events.t_s
    | Events.Note { at; _ } | Events.Snapshot (at, _) -> at

  let cell_json ~t0 c =
    let rel t = json_float (t -. t0) in
    match c with
    | Events.Record r -> Events.record_json ~t0 r
    | Events.Note { at; kind; message } ->
      Printf.sprintf "{\"t_s\":%s,\"type\":\"note\",\"kind\":\"%s\",\"message\":\"%s\"}" (rel at)
        (json_escape kind) (json_escape message)
    | Events.Snapshot (t, s) ->
      Printf.sprintf
        "{\"t_s\":%s,\"type\":\"snapshot\",\"accepted\":%d,\"rejected\":%d,\"retried\":%d,\"newton_iterations\":%d,\"gmres_iterations\":%d,\"health_warnings\":%d}"
        (rel t) s.Events.s_accepted s.s_rejected s.s_retried s.s_newton s.s_gmres s.s_warnings

  let dump ?(argv = Sys.argv) ?(subcommand = "") ?git ?(jobs = 1) ~kind ~message () =
    let cs = Events.cells () in
    let t_now = now () in
    let t0 = match cs with [] -> t_now | c :: _ -> cell_time c in
    let buf = Buffer.create 4096 in
    Buffer.add_char buf '{';
    Printf.bprintf buf "\"schema\":\"%s\"," (json_escape schema);
    provenance_fields buf ~argv ~subcommand ~git ~jobs;
    Printf.bprintf buf "\"reason\":{\"kind\":\"%s\",\"message\":\"%s\"}," (json_escape kind)
      (json_escape message);
    Printf.bprintf buf "\"capacity\":%d,\"recorded\":%d,\"dropped\":%d,"
      (Array.length !Events.ring) !Events.stored !Events.dropped;
    Printf.bprintf buf "\"metrics\":%s," (Metrics.to_json ());
    Buffer.add_string buf "\"timeline\":[";
    List.iter
      (fun c ->
        Buffer.add_string buf (cell_json ~t0 c);
        Buffer.add_char buf ',')
      cs;
    (* the triggering failure is always the final timeline entry *)
    Buffer.add_string buf (cell_json ~t0 (Events.Note { at = t_now; kind; message }));
    Buffer.add_string buf "]}";
    Buffer.contents buf

  let write ?argv ?subcommand ?git ?jobs ~path ~kind ~message () =
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (dump ?argv ?subcommand ?git ?jobs ~kind ~message ());
          output_char oc '\n');
      Ok path
    with Sys_error m -> Result.Error m

  (* ---------- postmortem rendering ---------- *)

  let render_value = function
    | Json.Num v -> Printf.sprintf "%.6g" v
    | Json.Str s -> s
    | Json.Bool b -> string_of_bool b
    | Json.Null -> "null"
    | Json.Arr _ | Json.Obj _ -> "..."

  let render_entry buf entry =
    match entry with
    | Json.Obj kvs ->
      let t_s =
        match Option.bind (List.assoc_opt "t_s" kvs) Json.to_num with Some v -> v | None -> nan
      in
      let label =
        match List.assoc_opt "type" kvs with
        | Some (Json.Str "event") -> (
          match Option.bind (List.assoc_opt "event" kvs) Json.to_str with
          | Some e -> e
          | None -> "event")
        | Some (Json.Str t) -> t
        | _ -> "?"
      in
      Printf.bprintf buf "  %+10.3fs  %-16s" t_s label;
      List.iter
        (fun (k, v) ->
          match k with
          | "t_s" | "type" | "event" -> ()
          | _ -> Printf.bprintf buf " %s=%s" k (render_value v))
        kvs;
      Buffer.add_char buf '\n'
    | _ -> Buffer.add_string buf "  (malformed timeline entry)\n"

  let to_postmortem contents =
    match Json.parse contents with
    | Result.Error m -> Result.Error (Printf.sprintf "malformed flight dump: %s" m)
    | Ok j ->
      let str k = Option.bind (Json.member k j) Json.to_str in
      let num k = Option.bind (Json.member k j) Json.to_num in
      (match str "schema" with
       | Some s when s = schema ->
         let buf = Buffer.create 2048 in
         Buffer.add_string buf "== flight postmortem ==\n";
         (match Json.member "reason" j with
          | Some r ->
            Printf.bprintf buf "reason: %s: %s\n"
              (Option.value ~default:"?" (Option.bind (Json.member "kind" r) Json.to_str))
              (Option.value ~default:"?" (Option.bind (Json.member "message" r) Json.to_str))
          | None -> Buffer.add_string buf "reason: (missing)\n");
         (match str "subcommand" with
          | Some c when c <> "" -> Printf.bprintf buf "subcommand: %s\n" c
          | _ -> ());
         (match Json.member "argv" j with
          | Some (Json.Arr args) ->
            Printf.bprintf buf "argv: %s\n"
              (String.concat " " (List.filter_map Json.to_str args))
          | _ -> ());
         (match str "git" with Some g -> Printf.bprintf buf "git: %s\n" g | None -> ());
         (match num "jobs" with
          | Some jv when jv > 1. -> Printf.bprintf buf "jobs: %.0f\n" jv
          | _ -> ());
         (match (num "recorded", num "dropped") with
          | Some r, Some d ->
            Printf.bprintf buf "ring: %.0f cell(s) recorded, %.0f dropped\n" r d
          | _ -> ());
         (match Json.member "timeline" j with
          | Some (Json.Arr entries) when entries <> [] ->
            Printf.bprintf buf "\ntimeline (%d entries, oldest first):\n" (List.length entries);
            List.iter (render_entry buf) entries
          | _ -> Buffer.add_string buf "\ntimeline: empty\n");
         (* the dump embeds a full metrics snapshot, so the doctor can
            diagnose the dump exactly as it would a run manifest *)
         let findings = Doctor.diagnose j in
         Buffer.add_char buf '\n';
         Buffer.add_string buf (Doctor.render findings);
         Ok (Buffer.contents buf)
       | Some s -> Result.Error (Printf.sprintf "not a flight dump: schema %S" s)
       | None -> Result.Error "not a flight dump: no schema field")
end
