let save net =
  let b = Buffer.create 4096 in
  let topo = Network.topology net in
  let traffic = Network.traffic net in
  Buffer.add_string b "noc-design 1\n";
  Buffer.add_string b
    (Printf.sprintf "# %d switches, %d links, %d VCs, %d flows\n"
       (Topology.n_switches topo) (Topology.n_links topo)
       (Topology.total_vcs topo) (Traffic.n_flows traffic));
  Buffer.add_string b (Printf.sprintf "switches %d\n" (Topology.n_switches topo));
  Buffer.add_string b (Printf.sprintf "cores %d\n" (Traffic.n_cores traffic));
  List.iter
    (fun (l : Topology.link) ->
      Buffer.add_string b
        (Printf.sprintf "link %d %d %d %d\n"
           (Ids.Link.to_int l.Topology.id)
           (Ids.Switch.to_int l.Topology.src)
           (Ids.Switch.to_int l.Topology.dst)
           (Topology.vc_count topo l.Topology.id)))
    (Topology.links topo);
  for c = 0 to Traffic.n_cores traffic - 1 do
    Buffer.add_string b
      (Printf.sprintf "core %d %d\n" c
         (Ids.Switch.to_int (Network.switch_of_core net (Ids.Core.of_int c))))
  done;
  List.iter
    (fun (f : Traffic.flow) ->
      Buffer.add_string b
        (Printf.sprintf "flow %d %d %d %.6g\n"
           (Ids.Flow.to_int f.Traffic.id)
           (Ids.Core.to_int f.Traffic.src)
           (Ids.Core.to_int f.Traffic.dst)
           f.Traffic.bandwidth))
    (Traffic.flows traffic);
  List.iter
    (fun (flow, route) ->
      if route <> [] then begin
        Buffer.add_string b (Printf.sprintf "route %d" (Ids.Flow.to_int flow));
        List.iter
          (fun c ->
            Buffer.add_string b
              (Printf.sprintf " %d:%d"
                 (Ids.Link.to_int (Channel.link c))
                 (Channel.vc c)))
          route;
        Buffer.add_char b '\n'
      end)
    (Network.routes net);
  Buffer.contents b

let save_file path net =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (save net))

(* Parsing ----------------------------------------------------------- *)

(* What the text declares, newest first.  The design is built from it
   only once the whole text has parsed. *)
type parse_state = {
  mutable n_switches : int option;
  mutable n_cores : int option;
  mutable links : (int * int * int * int) list;  (* id, src, dst, vcs *)
  mutable mapping : (int * int) list;  (* core, switch *)
  mutable flows : (int * int * int * float) list;
  mutable route_lines : (int * (int * int) list) list;
}

exception Bad_line of string

(* The bytes [String.trim] strips ('\n' never occurs inside a line). *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* Scans over [text].  Those taking [b] stop there; [drop_blanks] walks
   back from [j] and needs a byte other than a blank before it. *)
let rec skip_blanks text b i =
  if i < b && is_blank text.[i] then skip_blanks text b (i + 1) else i

let rec drop_blanks text j =
  if is_blank text.[j - 1] then drop_blanks text (j - 1) else j

let rec field_end text b j =
  if j < b && text.[j] <> ' ' then field_end text b (j + 1) else j

let rec colon_from text b k =
  if k = b then -1 else if text.[k] = ':' then k else colon_from text b (k + 1)

let rec same_from text a word k =
  k = String.length word || (text.[a + k] = word.[k] && same_from text a word (k + 1))

(* A plain decimal, or -1 when a byte is not a digit. *)
let rec decimal text b i acc =
  if i = b then acc
  else
    match text.[i] with
    | '0' .. '9' as c -> decimal text b (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* One walk over the text.  A line is the bytes between two newlines
   with blanks stripped from both ends; a field is a maximal run of
   bytes other than a space, so a tab belongs to its field.  Fields
   stay offsets into the text: field [i] is [fields.(2i)] up to
   [fields.(2i+1)].  Only a bandwidth or an error message copies one
   out. *)
let read text =
  let st =
    {
      n_switches = None;
      n_cores = None;
      links = [];
      mapping = [];
      flows = [];
      route_lines = [];
    }
  in
  let len = String.length text in
  let line_no = ref 0 in
  let fields = ref (Array.make 16 0) in
  let n_fields = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> raise_notrace (Bad_line (Printf.sprintf "line %d: %s" !line_no msg)))
      fmt
  in
  let start i = !fields.(2 * i) and stop i = !fields.((2 * i) + 1) in
  let sub i = String.sub text (start i) (stop i - start i) in
  let is i word = stop i - start i = String.length word && same_from text (start i) word 0 in
  (* A plain decimal of at most 18 digits cannot overflow; every other
     spelling ([+3], [0x10], [1_0], overflow) is [int_of_string]'s. *)
  let int_in what a b =
    let v = if b > a && b - a <= 18 then decimal text b a 0 else -1 in
    if v >= 0 then v
    else
      let s = String.sub text a (b - a) in
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail "bad %s %S" what s
  in
  let int_field what i = int_in what (start i) (stop i) in
  let hop i =
    let a = start i and b = stop i in
    let c = colon_from text b a in
    if c < 0 || colon_from text b (c + 1) >= 0 then
      fail "bad channel %S (expected link:vc)" (sub i)
    else
      let l = int_in "link" a c in
      let v = int_in "vc" (c + 1) b in
      (l, v)
  in
  let rec hops n i acc = if i = n then List.rev acc else hops n (i + 1) (hop i :: acc) in
  let push a b =
    if 2 * !n_fields = Array.length !fields then begin
      let grown = Array.make (2 * Array.length !fields) 0 in
      Array.blit !fields 0 grown 0 (Array.length !fields);
      fields := grown
    end;
    !fields.(2 * !n_fields) <- a;
    !fields.((2 * !n_fields) + 1) <- b;
    incr n_fields
  in
  let rec split b i =
    if i < b then
      if text.[i] = ' ' then split b (i + 1)
      else begin
        let j = field_end text b i in
        push i j;
        split b j
      end
  in
  let directive () =
    let n = !n_fields in
    if n = 2 && is 0 "noc-design" then begin
      if not (is 1 "1") then fail "unsupported format version %s" (sub 1)
    end
    else if n = 2 && is 0 "switches" then
      st.n_switches <- Some (int_field "switch count" 1)
    else if n = 2 && is 0 "cores" then
      st.n_cores <- Some (int_field "core count" 1)
    else if n = 5 && is 0 "link" then begin
      let id = int_field "link id" 1 in
      let src = int_field "link src" 2 in
      let dst = int_field "link dst" 3 in
      let vcs = int_field "vc count" 4 in
      st.links <- (id, src, dst, vcs) :: st.links
    end
    else if n = 3 && is 0 "core" then begin
      let id = int_field "core id" 1 in
      let sw = int_field "core switch" 2 in
      st.mapping <- (id, sw) :: st.mapping
    end
    else if n = 5 && is 0 "flow" then begin
      let id = int_field "flow id" 1 in
      let src = int_field "flow src" 2 in
      let dst = int_field "flow dst" 3 in
      let bw = sub 4 in
      match float_of_string_opt bw with
      | Some bw -> st.flows <- (id, src, dst, bw) :: st.flows
      | None -> fail "bad bandwidth %S" bw
    end
    else if n >= 2 && is 0 "route" then begin
      let id = int_field "route flow id" 1 in
      st.route_lines <- (id, hops n 2 []) :: st.route_lines
    end
    else fail "unknown directive %S" (sub 0)
  in
  let rec lines pos =
    if pos <= len then begin
      incr line_no;
      let eol =
        match String.index_from text pos '\n' with
        | i -> i
        | exception Not_found -> len
      in
      let a = skip_blanks text eol pos in
      if a < eol && text.[a] <> '#' then begin
        n_fields := 0;
        split (drop_blanks text eol) a;
        directive ()
      end;
      lines (eol + 1)
    end
  in
  lines 0;
  st

(* The switch of every core, as the first [core] line for it says
   ([lines] is newest first, so that line is written last).  Core ids
   are checked before anything sized by the declared count is
   allocated: [m] lines map at most [m] cores, so with fewer lines than
   cores the smallest unmapped core is at most [m], and [m + 1] slots
   find it.  The messages are those of indexing one array of [n_cores]
   slots. *)
let core_mapping ~n_cores lines =
  if n_cores > Sys.max_array_length then invalid_arg "Array.make";
  if List.exists (fun (c, _) -> c < 0 || c >= n_cores) lines then
    invalid_arg "index out of bounds";
  let mapping = Array.make (min n_cores (List.length lines + 1)) (-1) in
  List.iter (fun (c, s) -> if c < Array.length mapping then mapping.(c) <- s) lines;
  Array.iteri
    (fun c s -> if s < 0 then failwith (Printf.sprintf "core %d has no mapping" c))
    mapping;
  mapping

(* Lines listed newest first, put in [compare] order.  Ids that
   already increase, as [save] writes them, need no sort; otherwise the
   sort decides which malformed line is reported. *)
let in_order id newest_first =
  let rec decreasing = function
    | a :: (b :: _ as rest) -> id a > id b && decreasing rest
    | [ _ ] | [] -> true
  in
  if decreasing newest_first then List.rev newest_first
  else List.sort compare (List.rev newest_first)

let build st =
  match (st.n_switches, st.n_cores) with
  | None, _ -> Error "missing 'switches' directive"
  | _, None -> Error "missing 'cores' directive"
  | Some n_switches, Some n_cores -> (
      try
        let topo = Topology.create ~n_switches in
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
          (in_order (fun (id, _, _, _) -> id) st.links);
        let traffic = Traffic.create ~n_cores in
        List.iteri
          (fun expected (id, src, dst, bw) ->
            if id <> expected then
              failwith (Printf.sprintf "flow ids not dense at %d" id);
            ignore
              (Traffic.add_flow traffic ~src:(Ids.Core.of_int src)
                 ~dst:(Ids.Core.of_int dst) ~bandwidth:bw))
          (in_order (fun (id, _, _, _) -> id) st.flows);
        let mapping = core_mapping ~n_cores st.mapping in
        let net =
          Network.make ~topology:topo ~traffic ~mapping:(fun c ->
              Ids.Switch.of_int mapping.(Ids.Core.to_int c))
        in
        List.iter
          (fun (flow_id, channels) ->
            if flow_id >= Traffic.n_flows traffic then
              failwith (Printf.sprintf "route for unknown flow %d" flow_id);
            let route =
              List.map (fun (l, v) -> Channel.make (Ids.Link.of_int l) v) channels
            in
            Network.set_route net (Ids.Flow.of_int flow_id) route)
          (List.rev st.route_lines);
        Ok net
      with
      | Failure msg -> Error msg
      | Invalid_argument msg -> Error msg)

let parse text =
  match read text with st -> build st | exception Bad_line msg -> Error msg

let validated issues net =
  match issues net with
  | [] -> Ok net
  | issue :: _ ->
      Error (Format.asprintf "invalid design: %a" Validate.pp_issue issue)

let load text = Result.bind (parse text) (validated Validate.check)

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> load text
  | exception Sys_error msg -> Error msg
