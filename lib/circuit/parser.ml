exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let parse_value s =
  let s = String.lowercase_ascii (String.trim s) in
  if s = "" then failwith "Parser.parse_value: empty";
  (* split the numeric prefix from an optional suffix *)
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' in
  (* careful: 'e' may begin an exponent only when followed by a digit/sign *)
  let n = String.length s in
  let rec split i =
    if i >= n then i
    else begin
      let c = s.[i] in
      if is_num c then
        if c = 'e' && not (i + 1 < n && (s.[i + 1] = '-' || s.[i + 1] = '+' || (s.[i + 1] >= '0' && s.[i + 1] <= '9')))
        then i
        else split (i + 1)
      else i
    end
  in
  let cut = split 0 in
  if cut = 0 then failwith (Printf.sprintf "Parser.parse_value: %S" s);
  let num = float_of_string (String.sub s 0 cut) in
  let suffix = String.sub s cut (n - cut) in
  let multiplier =
    match suffix with
    | "" -> 1.
    | "t" -> 1e12
    | "g" -> 1e9
    | "meg" -> 1e6
    | "k" -> 1e3
    | "m" -> 1e-3
    | "u" -> 1e-6
    | "n" -> 1e-9
    | "p" -> 1e-12
    | "f" -> 1e-15
    | _ ->
      (* trailing unit letters after a recognized suffix are tolerated,
         SPICE-style: 10kohm, 5nF *)
      (match suffix.[0] with
       | 't' -> 1e12
       | 'g' -> 1e9
       | 'k' -> 1e3
       | 'm' -> if String.length suffix >= 3 && String.sub suffix 0 3 = "meg" then 1e6 else 1e-3
       | 'u' -> 1e-6
       | 'n' -> 1e-9
       | 'p' -> 1e-12
       | 'f' -> 1e-15
       | 'a' .. 'e' | 'h' .. 'j' | 'l' | 'o' .. 's' | 'v' .. 'z' -> 1.
       | _ -> failwith (Printf.sprintf "Parser.parse_value: bad suffix %S" suffix))
  in
  num *. multiplier

(* key=value option fields *)
let parse_options line tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> fail line "expected KEY=VALUE, got %S" tok
      | Some i ->
        let key = String.lowercase_ascii (String.sub tok 0 i) in
        let v =
          try parse_value (String.sub tok (i + 1) (String.length tok - i - 1))
          with Failure m -> fail line "%s" m
        in
        (key, v))
    tokens

let find_opt options key default = Option.value (List.assoc_opt key options) ~default

(* source specification: "<value>" | "DC <value>" | "SIN(off amp freq)" *)
let parse_source line tokens =
  match tokens with
  | [ v ] -> (
    try
      let x = parse_value v in
      fun _ -> x
    with Failure m -> fail line "%s" m)
  | [ "dc"; v ] | [ "DC"; v ] -> (
    try
      let x = parse_value v in
      fun _ -> x
    with Failure m -> fail line "%s" m)
  | tokens -> (
    (* re-join and match SIN(a b c), tolerant of spaces *)
    let joined = String.concat " " tokens in
    let lower = String.lowercase_ascii joined in
    if String.length lower >= 4 && String.sub lower 0 4 = "sin(" then begin
      let inner = String.sub joined 4 (String.length joined - 4) in
      let inner =
        match String.index_opt inner ')' with
        | Some i -> String.sub inner 0 i
        | None -> fail line "SIN(...): missing closing parenthesis"
      in
      let parts =
        String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) inner)
        |> List.filter (fun s -> s <> "")
      in
      match parts with
      | [ off; amp; freq ] -> (
        try
          let off = parse_value off and amp = parse_value amp and freq = parse_value freq in
          fun t -> off +. (amp *. sin (2. *. Float.pi *. freq *. t))
        with Failure m -> fail line "%s" m)
      | _ -> fail line "SIN expects 3 arguments (offset amplitude frequency)"
    end
    else fail line "unrecognized source specification %S" joined)

let parse_string text =
  let net = Mna.create () in
  let node name = Mna.node net name in
  let lines = String.split_on_char '\n' text in
  let ended = ref false in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line_text = String.trim raw in
      if (not !ended) && line_text <> "" && line_text.[0] <> '*' && line_text.[0] <> ';' then begin
        let lower = String.lowercase_ascii line_text in
        if lower = ".end" then ended := true
        else begin
          let tokens =
            String.split_on_char ' '
              (String.map (fun c -> if c = '\t' then ' ' else c) line_text)
            |> List.filter (fun s -> s <> "")
          in
          match tokens with
          | [] -> ()
          | name :: rest ->
            let kind = Char.lowercase_ascii name.[0] in
            (* constructors reject bad values with Failure (numbers) or
               Invalid_argument (device parameters) *)
            (try
               match kind, rest with
               | 'r', [ n1; n2; v ] ->
                 Mna.add net (Mna.resistor ~label:name ~r:(parse_value v) (node n1) (node n2))
               | 'c', n1 :: n2 :: spec :: opts when String.lowercase_ascii spec = "junction" ->
                 let options = parse_options lineno opts in
                 Mna.add net
                   (Mna.junction_capacitor ~label:name
                      ~c0:(find_opt options "c0" 1.)
                      ~vj:(find_opt options "vj" 0.7)
                      ~m:(find_opt options "m" 0.5)
                      ~fc:(find_opt options "fc" 0.5)
                      (node n1) (node n2))
               | 'c', [ n1; n2; v ] ->
                 Mna.add net (Mna.capacitor ~label:name ~c:(parse_value v) (node n1) (node n2))
               | 'l', [ n1; n2; v ] ->
                 Mna.add net (Mna.inductor ~label:name ~l:(parse_value v) (node n1) (node n2))
               | 'v', n1 :: n2 :: spec when spec <> [] ->
                 let source = parse_source lineno spec in
                 Mna.add net (Mna.vsource ~label:name ~v:source (node n1) (node n2))
               | 'i', n1 :: n2 :: spec when spec <> [] ->
                 let source = parse_source lineno spec in
                 Mna.add net (Mna.isource ~label:name ~i:source (node n1) (node n2))
               | 'd', n1 :: n2 :: opts ->
                 let options = parse_options lineno opts in
                 Mna.add net
                   (Mna.diode ~label:name
                      ~is_:(find_opt options "is" 1e-12)
                      ~vt:(find_opt options "vt" 0.02585)
                      (node n1) (node n2))
               | 'g', [ n1; n2; nc1; nc2; gm ] ->
                 Mna.add net
                   (Mna.vccs ~label:name ~gm:(parse_value gm) (node nc1) (node nc2) (node n1)
                      (node n2))
               | 'e', [ n1; n2; nc1; nc2; gain ] ->
                 Mna.add net
                   (Mna.vcvs ~label:name ~gain:(parse_value gain) (node nc1) (node nc2)
                      (node n1) (node n2))
               | 'm', nd :: ng :: ns :: opts ->
                 let options = parse_options lineno opts in
                 Mna.add net
                   (Mna.mosfet ~label:name
                      ~k:(find_opt options "k" 1.)
                      ~vt:(find_opt options "vt" 0.6)
                      ~drain:(node nd) ~gate:(node ng) ~source:(node ns) ())
               | 'n', [ n1; n2; g1; g3 ] ->
                 Mna.add net
                   (Mna.cubic_conductance ~label:name ~g1:(parse_value g1)
                      ~g3:(parse_value g3) (node n1) (node n2))
               | _ -> fail lineno "cannot parse device line %S" line_text
             with Failure m | Invalid_argument m -> fail lineno "%s" m)
        end
      end)
    lines;
  net

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text
