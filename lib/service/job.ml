(* A job is a self-contained description of one solver request.  Two
   invariants carry the whole subsystem:

   - [to_json] is canonical: fixed field order, every default written
     out explicitly, no float formatting ambiguity.  [of_json] accepts
     the same shape with optional fields defaulted, so
     [of_json (to_json j) = Ok j] for every job.
   - [hash] is the MD5 of the canonical encoding.  Equal jobs hash
     equal on every platform and across processes, which is what makes
     the result cache content-addressed and lets bench baselines pin
     job identities. *)

module Json = Noc_json.Json

type design =
  | Benchmark of { name : string; n_switches : int; max_degree : int }
  | Inline of string  (* full noc-design 1 text *)

type prepare = As_is | Removal_first | Ordering_first

type method_ =
  | Removal of {
      heuristic : Noc_deadlock.Removal.heuristic;
      directions : Noc_deadlock.Cost_table.direction list;
      resource : Noc_deadlock.Break_cycle.resource_kind;
    }
  | Resource_ordering of { strategy : Noc_deadlock.Resource_ordering.strategy }
  | Sweep
  | Simulate of {
      prepare : prepare;
      workload : Noc_benchmarks.Workloads.spec;
      buffer_depth : int;
      max_cycles : int;
    }

type t = { design : design; method_ : method_ }

let default_max_degree = 4

let removal_defaults =
  Removal
    {
      heuristic = Noc_deadlock.Removal.Smallest_cycle_first;
      directions = [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ];
      resource = Noc_deadlock.Break_cycle.Virtual_channel;
    }

let default_buffer_depth = 4
let default_max_cycles = 200_000

let simulate ?(prepare = As_is) ?(buffer_depth = default_buffer_depth)
    ?(max_cycles = default_max_cycles) workload =
  Simulate { prepare; workload; buffer_depth; max_cycles }

(* ------------------------------------------------------------------ *)
(* Canonical JSON                                                      *)
(* ------------------------------------------------------------------ *)

let heuristic_name = function
  | Noc_deadlock.Removal.Smallest_cycle_first -> "smallest"
  | Noc_deadlock.Removal.Any_cycle_first -> "any"

let heuristic_of_name = function
  | "smallest" -> Ok Noc_deadlock.Removal.Smallest_cycle_first
  | "any" -> Ok Noc_deadlock.Removal.Any_cycle_first
  | s -> Error (Printf.sprintf "unknown heuristic %S (want smallest|any)" s)

let directions_name = function
  | [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ] -> "both"
  | [ Noc_deadlock.Cost_table.Forward ] -> "forward"
  | [ Noc_deadlock.Cost_table.Backward ] -> "backward"
  | _ -> invalid_arg "Job: unrepresentable direction list"

let directions_of_name = function
  | "both" -> Ok [ Noc_deadlock.Cost_table.Forward; Noc_deadlock.Cost_table.Backward ]
  | "forward" -> Ok [ Noc_deadlock.Cost_table.Forward ]
  | "backward" -> Ok [ Noc_deadlock.Cost_table.Backward ]
  | s -> Error (Printf.sprintf "unknown directions %S (want both|forward|backward)" s)

let resource_name = function
  | Noc_deadlock.Break_cycle.Virtual_channel -> "vc"
  | Noc_deadlock.Break_cycle.Physical_link -> "link"

let resource_of_name = function
  | "vc" -> Ok Noc_deadlock.Break_cycle.Virtual_channel
  | "link" -> Ok Noc_deadlock.Break_cycle.Physical_link
  | s -> Error (Printf.sprintf "unknown resource %S (want vc|link)" s)

let strategy_name = function
  | Noc_deadlock.Resource_ordering.Greedy_ordered -> "greedy"
  | Noc_deadlock.Resource_ordering.Hop_index -> "hop-index"

let strategy_of_name = function
  | "greedy" -> Ok Noc_deadlock.Resource_ordering.Greedy_ordered
  | "hop-index" -> Ok Noc_deadlock.Resource_ordering.Hop_index
  | s -> Error (Printf.sprintf "unknown strategy %S (want greedy|hop-index)" s)

let prepare_name = function
  | As_is -> "as-is"
  | Removal_first -> "removal"
  | Ordering_first -> "ordering"

let prepare_of_name = function
  | "as-is" -> Ok As_is
  | "removal" -> Ok Removal_first
  | "ordering" -> Ok Ordering_first
  | s -> Error (Printf.sprintf "unknown prepare %S (want as-is|removal|ordering)" s)

(* Workload specs serialize with the kind tag first and every parameter
   explicit, in a fixed per-kind field order — same canonicality rules
   as the job envelope. *)
let workload_to_json w =
  let open Noc_benchmarks.Workloads in
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  let fields =
    match w with
    | Burst { packet_length; packets_per_flow } ->
        [
          ("packet_length", int packet_length);
          ("packets_per_flow", int packets_per_flow);
        ]
    | Uniform_random { packet_length; duration; rate; seed } ->
        [
          ("packet_length", int packet_length);
          ("duration", int duration);
          ("rate", num rate);
          ("seed", int seed);
        ]
    | Hotspot { packet_length; duration; rate; factor; seed } ->
        [
          ("packet_length", int packet_length);
          ("duration", int duration);
          ("rate", num rate);
          ("factor", num factor);
          ("seed", int seed);
        ]
    | Transpose { packet_length; packets_per_flow; interval } ->
        [
          ("packet_length", int packet_length);
          ("packets_per_flow", int packets_per_flow);
          ("interval", int interval);
        ]
    | Bursty { request_length; response_length; duration; exchanges; idle; seed }
      ->
        [
          ("request_length", int request_length);
          ("response_length", int response_length);
          ("duration", int duration);
          ("exchanges", int exchanges);
          ("idle", int idle);
          ("seed", int seed);
        ]
    | Bandwidth_proportional { packet_length; duration; capacity_mbps; seed } ->
        [
          ("packet_length", int packet_length);
          ("duration", int duration);
          ("capacity_mbps", num capacity_mbps);
          ("seed", int seed);
        ]
  in
  Json.Obj (("kind", Json.Str (kind w)) :: fields)

let design_to_json = function
  | Benchmark { name; n_switches; max_degree } ->
      Json.Obj
        [
          ("benchmark", Json.Str name);
          ("switches", Json.Num (float_of_int n_switches));
          ("max_degree", Json.Num (float_of_int max_degree));
        ]
  | Inline text -> Json.Obj [ ("inline", Json.Str text) ]

(* Omitted workload parameters default to the corresponding
   [Workloads.default_*] spec (pinned by a round-trip unit test). *)
let workload_of_json v =
  let open Noc_benchmarks.Workloads in
  let ( let* ) = Result.bind in
  let int_field key default =
    match Json.member key v with
    | None -> Ok default
    | Some (Json.Num _ as n) -> Ok (Json.to_int n)
    | Some _ -> Error (Printf.sprintf "workload.%s must be an integer" key)
  in
  let num_field key default =
    match Json.member key v with
    | None -> Ok default
    | Some (Json.Num f) -> Ok f
    | Some _ -> Error (Printf.sprintf "workload.%s must be a number" key)
  in
  match Json.member "kind" v with
  | Some (Json.Str k) -> (
      match k with
      | "burst" ->
          let* packet_length = int_field "packet_length" 8 in
          let* packets_per_flow = int_field "packets_per_flow" 2 in
          Ok (Burst { packet_length; packets_per_flow })
      | "uniform" ->
          let* packet_length = int_field "packet_length" 4 in
          let* duration = int_field "duration" 512 in
          let* rate = num_field "rate" 0.1 in
          let* seed = int_field "seed" 1 in
          Ok (Uniform_random { packet_length; duration; rate; seed })
      | "hotspot" ->
          let* packet_length = int_field "packet_length" 4 in
          let* duration = int_field "duration" 512 in
          let* rate = num_field "rate" 0.1 in
          let* factor = num_field "factor" 4. in
          let* seed = int_field "seed" 1 in
          Ok (Hotspot { packet_length; duration; rate; factor; seed })
      | "transpose" ->
          let* packet_length = int_field "packet_length" 8 in
          let* packets_per_flow = int_field "packets_per_flow" 4 in
          let* interval = int_field "interval" 32 in
          Ok (Transpose { packet_length; packets_per_flow; interval })
      | "bursty" ->
          let* request_length = int_field "request_length" 1 in
          let* response_length = int_field "response_length" 8 in
          let* duration = int_field "duration" 512 in
          let* exchanges = int_field "exchanges" 2 in
          let* idle = int_field "idle" 64 in
          let* seed = int_field "seed" 1 in
          Ok
            (Bursty
               { request_length; response_length; duration; exchanges; idle; seed })
      | "bandwidth" ->
          let* packet_length = int_field "packet_length" 4 in
          let* duration = int_field "duration" 512 in
          let* capacity_mbps = num_field "capacity_mbps" 1000. in
          let* seed = int_field "seed" 1 in
          Ok (Bandwidth_proportional { packet_length; duration; capacity_mbps; seed })
      | k ->
          Error
            (Printf.sprintf "unknown workload kind %S (want %s)" k
               (String.concat "|" kinds)))
  | Some _ -> Error "workload.kind must be a string"
  | None -> Error "workload: missing \"kind\" field"

let method_to_json = function
  | Removal { heuristic; directions; resource } ->
      ( "removal",
        Json.Obj
          [
            ("heuristic", Json.Str (heuristic_name heuristic));
            ("directions", Json.Str (directions_name directions));
            ("resource", Json.Str (resource_name resource));
          ] )
  | Resource_ordering { strategy } ->
      ("ordering", Json.Obj [ ("strategy", Json.Str (strategy_name strategy)) ])
  | Sweep -> ("sweep", Json.Obj [])
  | Simulate { prepare; workload; buffer_depth; max_cycles } ->
      ( "simulate",
        Json.Obj
          [
            ("prepare", Json.Str (prepare_name prepare));
            ("workload", workload_to_json workload);
            ("buffer_depth", Json.Num (float_of_int buffer_depth));
            ("max_cycles", Json.Num (float_of_int max_cycles));
          ] )

let to_json t =
  let method_name, options = method_to_json t.method_ in
  Json.Obj
    [
      ("design", design_to_json t.design);
      ("method", Json.Str method_name);
      ("options", options);
    ]

let ( let* ) = Result.bind

let design_of_json v =
  match (Json.member "benchmark" v, Json.member "inline" v) with
  | Some _, Some _ -> Error "design: give either \"benchmark\" or \"inline\", not both"
  | Some name, None -> (
      match (name, Json.member "switches" v) with
      | Json.Str name, Some (Json.Num _ as n) -> (
          let n_switches = Json.to_int n in
          match Json.member "max_degree" v with
          | None ->
              Ok (Benchmark { name; n_switches; max_degree = default_max_degree })
          | Some (Json.Num _ as d) ->
              Ok (Benchmark { name; n_switches; max_degree = Json.to_int d })
          | Some _ -> Error "design: \"max_degree\" must be an integer")
      | Json.Str _, _ -> Error "design: missing integer field \"switches\""
      | _, _ -> Error "design: \"benchmark\" must be a string")
  | None, Some (Json.Str text) -> Ok (Inline text)
  | None, Some _ -> Error "design: \"inline\" must be a string (noc-design text)"
  | None, None -> Error "design: needs a \"benchmark\" or \"inline\" field"

let method_of_json name options =
  let str_option key default =
    match Json.member key options with
    | None -> Ok default
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "options.%s must be a string" key)
  in
  match name with
  | "removal" ->
      let* h = str_option "heuristic" "smallest" in
      let* heuristic = heuristic_of_name h in
      let* d = str_option "directions" "both" in
      let* directions = directions_of_name d in
      let* r = str_option "resource" "vc" in
      let* resource = resource_of_name r in
      Ok (Removal { heuristic; directions; resource })
  | "ordering" ->
      let* s = str_option "strategy" "greedy" in
      let* strategy = strategy_of_name s in
      Ok (Resource_ordering { strategy })
  | "sweep" -> Ok Sweep
  | "simulate" ->
      let* p = str_option "prepare" "as-is" in
      let* prepare = prepare_of_name p in
      let* workload =
        match Json.member "workload" options with
        | None -> Ok Noc_benchmarks.Workloads.default_uniform
        | Some (Json.Obj _ as w) -> workload_of_json w
        | Some _ -> Error "options.workload must be an object"
      in
      let int_option key default =
        match Json.member key options with
        | None -> Ok default
        | Some (Json.Num _ as n) -> Ok (Json.to_int n)
        | Some _ -> Error (Printf.sprintf "options.%s must be an integer" key)
      in
      let* buffer_depth = int_option "buffer_depth" default_buffer_depth in
      let* max_cycles = int_option "max_cycles" default_max_cycles in
      Ok (Simulate { prepare; workload; buffer_depth; max_cycles })
  | s ->
      Error
        (Printf.sprintf "unknown method %S (want removal|ordering|sweep|simulate)" s)

let of_json v =
  match v with
  | Json.Obj _ -> (
      match Json.member "design" v with
      | None -> Error "job: missing \"design\" field"
      | Some design_v -> (
          let* design = design_of_json design_v in
          match Json.member "method" v with
          | None -> Error "job: missing \"method\" field"
          | Some (Json.Str name) ->
              let options =
                Option.value ~default:(Json.Obj []) (Json.member "options" v)
              in
              let* method_ = method_of_json name options in
              Ok { design; method_ }
          | Some _ -> Error "job: \"method\" must be a string"))
  | _ -> Error "job: expected an object"

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let canonical t = Json.to_string (to_json t)
let hash t = Digest.to_hex (Digest.string (canonical t))

let label t =
  let what =
    match t.design with
    | Benchmark { name; n_switches; _ } -> Printf.sprintf "%s@%d" name n_switches
    | Inline _ -> "inline design"
  in
  let how =
    match t.method_ with
    | Removal _ -> "removal"
    | Resource_ordering _ -> "ordering"
    | Sweep -> "sweep"
    | Simulate { prepare; workload; _ } ->
        Printf.sprintf "sim %s/%s"
          (Noc_benchmarks.Workloads.kind workload)
          (prepare_name prepare)
  in
  Printf.sprintf "%s %s" how what

(* ------------------------------------------------------------------ *)
(* Job files                                                           *)
(* ------------------------------------------------------------------ *)

let file_schema = "noc-jobs/1"

let list_to_json jobs =
  Json.Obj
    [
      ("schema", Json.Str file_schema);
      ("jobs", Json.Arr (List.map to_json jobs));
    ]

let list_of_json text =
  let* root = Json.of_string text in
  match Json.member "schema" root with
  | Some (Json.Str s) when s = file_schema -> (
      match Json.member "jobs" root with
      | Some (Json.Arr items) ->
          let rec convert i acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
                match of_json item with
                | Ok job -> convert (i + 1) (job :: acc) rest
                | Error e -> Error (Printf.sprintf "job %d: %s" i e))
          in
          convert 0 [] items
      | Some _ -> Error "\"jobs\" is not an array"
      | None -> Error "missing \"jobs\" array")
  | Some (Json.Str s) ->
      Error (Printf.sprintf "unsupported schema %S (want %S)" s file_schema)
  | Some _ | None ->
      Error (Printf.sprintf "missing \"schema\" field (want %S)" file_schema)
