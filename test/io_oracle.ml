(* Reference design parser: the list formulation that
   [Noc_model.Io.load] must agree with, design for design and message
   for message.  The text is split into a list of lines, each line is
   trimmed and split into a list of fields, every field is parsed
   through a [Result.bind] closure, and the link and flow tuples are
   sorted with polymorphic [compare] before the design is built and
   validated.  Slow, but each step is the definition. *)

open Noc_model

type parse_state = {
  mutable n_switches : int option;
  mutable n_cores : int option;
  mutable links : (int * int * int * int) list;  (* id, src, dst, vcs *)
  mutable mapping : (int * int) list;  (* core, switch *)
  mutable flows : (int * int * int * float) list;
  mutable route_lines : (int * (int * int) list) list;
}

let load text =
  let state =
    {
      n_switches = None;
      n_cores = None;
      links = [];
      mapping = [];
      flows = [];
      route_lines = [];
    }
  in
  let error line_no fmt =
    Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" line_no msg)) fmt
  in
  let parse_int line_no what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> error line_no "bad %s %S" what s
  in
  let parse_channel line_no s =
    match String.split_on_char ':' s with
    | [ l; v ] ->
        Result.bind (parse_int line_no "link" l) (fun l ->
            Result.bind (parse_int line_no "vc" v) (fun v -> Ok (l, v)))
    | _ :: _ | [] -> error line_no "bad channel %S (expected link:vc)" s
  in
  let rec parse_channels line_no acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        Result.bind (parse_channel line_no s) (fun c ->
            parse_channels line_no (c :: acc) rest)
  in
  let parse_line line_no line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok ()
    else begin
      let fields =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
      in
      match fields with
      | [ "noc-design"; version ] ->
          if version = "1" then Ok ()
          else error line_no "unsupported format version %s" version
      | [ "switches"; n ] ->
          Result.map (fun v -> state.n_switches <- Some v) (parse_int line_no "switch count" n)
      | [ "cores"; n ] ->
          Result.map (fun v -> state.n_cores <- Some v) (parse_int line_no "core count" n)
      | [ "link"; id; src; dst; vcs ] ->
          Result.bind (parse_int line_no "link id" id) (fun id ->
              Result.bind (parse_int line_no "link src" src) (fun src ->
                  Result.bind (parse_int line_no "link dst" dst) (fun dst ->
                      Result.map
                        (fun vcs -> state.links <- (id, src, dst, vcs) :: state.links)
                        (parse_int line_no "vc count" vcs))))
      | [ "core"; id; sw ] ->
          Result.bind (parse_int line_no "core id" id) (fun id ->
              Result.map
                (fun sw -> state.mapping <- (id, sw) :: state.mapping)
                (parse_int line_no "core switch" sw))
      | [ "flow"; id; src; dst; bw ] ->
          Result.bind (parse_int line_no "flow id" id) (fun id ->
              Result.bind (parse_int line_no "flow src" src) (fun src ->
                  Result.bind (parse_int line_no "flow dst" dst) (fun dst ->
                      match float_of_string_opt bw with
                      | Some bw ->
                          state.flows <- (id, src, dst, bw) :: state.flows;
                          Ok ()
                      | None -> error line_no "bad bandwidth %S" bw)))
      | "route" :: id :: channels ->
          Result.bind (parse_int line_no "route flow id" id) (fun id ->
              Result.map
                (fun cs -> state.route_lines <- (id, cs) :: state.route_lines)
                (parse_channels line_no [] channels))
      | keyword :: _ -> error line_no "unknown directive %S" keyword
      | [] -> Ok ()
    end
  in
  let lines = String.split_on_char '\n' text in
  let rec parse_all line_no = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line line_no line with
        | Ok () -> parse_all (line_no + 1) rest
        | Error _ as e -> e)
  in
  Result.bind (parse_all 1 lines) (fun () ->
      match (state.n_switches, state.n_cores) with
      | None, _ -> Error "missing 'switches' directive"
      | _, None -> Error "missing 'cores' directive"
      | Some n_switches, Some n_cores -> (
          try
            let topo = Topology.create ~n_switches in
            let links = List.sort compare (List.rev state.links) in
            List.iteri
              (fun expected (id, src, dst, vcs) ->
                if id <> expected then
                  failwith (Printf.sprintf "link ids not dense at %d" id);
                let lid =
                  Topology.add_link topo ~src:(Ids.Switch.of_int src)
                    ~dst:(Ids.Switch.of_int dst)
                in
                for _ = 2 to vcs do
                  ignore (Topology.add_vc topo lid)
                done)
              links;
            let traffic = Traffic.create ~n_cores in
            let flows = List.sort compare (List.rev state.flows) in
            List.iteri
              (fun expected (id, src, dst, bw) ->
                if id <> expected then
                  failwith (Printf.sprintf "flow ids not dense at %d" id);
                ignore
                  (Traffic.add_flow traffic ~src:(Ids.Core.of_int src)
                     ~dst:(Ids.Core.of_int dst) ~bandwidth:bw))
              flows;
            let mapping = Array.make n_cores (-1) in
            List.iter (fun (c, s) -> mapping.(c) <- s) state.mapping;
            Array.iteri
              (fun c s ->
                if s < 0 then failwith (Printf.sprintf "core %d has no mapping" c))
              mapping;
            let net =
              Network.make ~topology:topo ~traffic ~mapping:(fun c ->
                  Ids.Switch.of_int mapping.(Ids.Core.to_int c))
            in
            List.iter
              (fun (flow_id, channels) ->
                if flow_id >= Traffic.n_flows traffic then
                  failwith (Printf.sprintf "route for unknown flow %d" flow_id);
                let route =
                  List.map
                    (fun (l, v) -> Channel.make (Ids.Link.of_int l) v)
                    channels
                in
                Network.set_route net (Ids.Flow.of_int flow_id) route)
              (List.rev state.route_lines);
            (* Structural sanity of what we just built. *)
            match Validate.check net with
            | [] -> Ok net
            | issue :: _ ->
                Error (Format.asprintf "invalid design: %a" Validate.pp_issue issue)
          with
          | Failure msg -> Error msg
          | Invalid_argument msg -> Error msg))
