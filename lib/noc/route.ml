type t = Channel.t list

let links r = List.map Channel.link r
let length = List.length
let uses_channel r c = List.exists (Channel.equal c) r

let consecutive_pairs r =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs r

type error =
  | Unknown_link of Channel.t
  | Missing_route of { src : Ids.Switch.t; dst : Ids.Switch.t }
  | Bad_vc of { channel : Channel.t; have : int }
  | Wrong_source of { actual : Ids.Switch.t; expected : Ids.Switch.t }
  | Wrong_destination of { actual : Ids.Switch.t; expected : Ids.Switch.t }
  | Discontinuity of Channel.t * Channel.t
  | Repeated_channel of Channel.t

let error_code = function
  | Missing_route _ -> Diag_code.route_missing
  | Bad_vc _ -> Diag_code.route_bad_vc
  | Unknown_link _ | Wrong_source _ | Wrong_destination _ | Discontinuity _ ->
      Diag_code.route_broken
  | Repeated_channel _ -> Diag_code.route_revisit

let error_message = function
  | Unknown_link channel ->
      Format.asprintf "channel %a is on a link the topology does not declare"
        Channel.pp channel
  | Missing_route { src; dst } ->
      Format.asprintf "empty route between distinct switches %a and %a"
        Ids.Switch.pp src Ids.Switch.pp dst
  | Bad_vc { channel; have } ->
      Format.asprintf "channel %a uses VC %d but link has only %d" Channel.pp
        channel (Channel.vc channel) have
  | Wrong_source { actual; expected } ->
      Format.asprintf "route starts at %a, expected %a" Ids.Switch.pp actual
        Ids.Switch.pp expected
  | Wrong_destination { actual; expected } ->
      Format.asprintf "route ends at %a, expected %a" Ids.Switch.pp actual
        Ids.Switch.pp expected
  | Discontinuity (a, b) ->
      Format.asprintf "discontinuous route: %a then %a" Channel.pp a Channel.pp b
  | Repeated_channel _ -> "route repeats a channel"

let check_detailed topo ~src ~dst r =
  let check_hop c =
    if not (Topology.mem_link topo (Channel.link c)) then Some (Unknown_link c)
    else
      let have = Topology.vc_count topo (Channel.link c) in
      if Channel.vc c >= have then Some (Bad_vc { channel = c; have })
      else None
  in
  match r with
  | [] ->
      if Ids.Switch.equal src dst then Ok ()
      else Error (Missing_route { src; dst })
  | first :: _ -> (
      match List.find_map check_hop r with
      | Some e -> Error e
      | None ->
          let first_link = Topology.link topo (Channel.link first) in
          let last = List.nth r (List.length r - 1) in
          let last_link = Topology.link topo (Channel.link last) in
          if not (Ids.Switch.equal first_link.Topology.src src) then
            Error
              (Wrong_source
                 { actual = first_link.Topology.src; expected = src })
          else if not (Ids.Switch.equal last_link.Topology.dst dst) then
            Error
              (Wrong_destination
                 { actual = last_link.Topology.dst; expected = dst })
          else begin
            let continuous (a, b) =
              let la = Topology.link topo (Channel.link a) in
              let lb = Topology.link topo (Channel.link b) in
              Ids.Switch.equal la.Topology.dst lb.Topology.src
            in
            match
              List.find_opt (fun p -> not (continuous p)) (consecutive_pairs r)
            with
            | Some (a, b) -> Error (Discontinuity (a, b))
            | None -> (
                let sorted = List.sort Channel.compare r in
                let rec dup = function
                  | a :: (b :: _ as rest) ->
                      if Channel.equal a b then Some a else dup rest
                  | [ _ ] | [] -> None
                in
                match dup sorted with
                | Some c -> Error (Repeated_channel c)
                | None -> Ok ())
          end)

let check topo ~src ~dst r =
  Result.map_error error_message (check_detailed topo ~src ~dst r)

let pp ppf r =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Channel.pp) r
