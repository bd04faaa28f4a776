(** Textual design format: save and load a complete NoC design
    (topology, VC counts, cores, mapping, flows, routes).

    The format is line-oriented and versioned:

    {v
    noc-design 1
    switches 4
    cores 4
    link <id> <src-switch> <dst-switch> <vc-count>
    core <id> <switch>
    flow <id> <src-core> <dst-core> <bandwidth>
    route <flow-id> <link>:<vc> <link>:<vc> ...
    v}

    Comment lines start with [#]; blank lines are ignored.  [link],
    [core] and [flow] ids must be dense (they are assigned by the
    builders); every flow between two cores on different switches
    needs a [route] line, or the design fails validation.  See
    docs/FORMAT.md for what the parser accepts. *)

val save : Network.t -> string
(** Serialize to the textual format. *)

val save_file : string -> Network.t -> unit
(** [save_file path net] writes {!save} to [path]. *)

val load : string -> (Network.t, string) result
(** Parse a design and check it structurally: {!parse}, then
    {!validated} with {!Validate.check}.  Errors carry a line number
    and a reason. *)

val parse : string -> (Network.t, string) result
(** The design as written, before {!load}'s structural check.  Parsing
    is one walk over the text: line bounds, blanks and fields are kept
    as offsets, plain decimals are read in place, and only a bandwidth
    or an error message is copied out of the text.  Declared switch and
    core counts are checked against the lines that use them before
    anything sized by them is allocated. *)

val validated :
  (Network.t -> Validate.issue list) ->
  Network.t ->
  (Network.t, string) result
(** [validated issues net] is {!load}'s answer for a design {!parse}
    built, given [issues], {!Validate.check} or a cached copy of it:
    [Ok net] without issues, ["invalid design: <first issue>"]
    otherwise. *)

val load_file : string -> (Network.t, string) result
(** Read and {!load} a file; I/O failures become [Error]. *)
