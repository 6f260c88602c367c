(** The profiler: one frame taxonomy on two clocks, plus the bounded
    histograms behind the event-queue introspection.

    Layers {!push}/{!pop} named frames; one call moves both stacks.

    - {b Virtual time} is attributed per simulated host at the sites that
      account it ({!charge}, {!charge_root}), before the implied sleep,
      so time spent by other processes while a frame's owner sleeps never
      lands in that frame. Each host's tree is rooted at [host<N>], whose
      exclusive time is elapsed virtual time minus everything attributed
      beneath it: the root's inclusive time equals {!elapsed}.
    - {b Wall time and allocation} are deltas of the monotonic clock and
      of [Gc.counters] taken at every transition (push/pop, event
      dispatch begin/end) and charged to the node executing through the
      interval, so nothing is double-counted and the [engine] root's
      inclusive wall time equals {!elapsed_wall_ns}. Its depth-1 children
      are event kinds ([ev:<schedule label>]) and out-of-event frames;
      frames pushed while an event runs nest under its kind node, and
      inter-event loop overhead is the root's exclusive time.

    [Sim.step] drives the event windows and the queue histograms.
    Process-global, off by default, one boolean test per call when
    disabled. *)

val start : unit -> unit
(** Enable and clear; both elapsed origins are the current virtual and
    wall times. *)

val stop : unit -> unit
(** Final wall charge, freeze both elapsed times, disable, and fold
    per-layer [selfprof_wall_ns_total{layer}] /
    [selfprof_alloc_words_total{layer}] counters into the metrics
    registry. *)

val clear : unit -> unit
val enabled : unit -> bool

val attach_clock : (unit -> int) -> unit
(** Called by [Sim.create] with a cumulative virtual-time clock (monotone
    across simulator instances within one run). *)

val now_ns : unit -> int
(** The monotonic clock, in nanoseconds (arbitrary origin). *)

val elapsed : unit -> int
(** Virtual ns since {!start}, cumulative across simulator instances
    (frozen by {!stop}). *)

val elapsed_wall_ns : unit -> int
(** Wall ns since {!start} (frozen by {!stop}). *)

(** {2 Frames and charges} *)

val push : ?host:int -> string -> unit
(** Enter a named frame on [host]'s virtual stack and on the wall stack
    of the current event window. No-op when disabled. *)

val pop : ?host:int -> unit -> unit
(** Leave the innermost frame on both stacks. Popping an empty virtual
    stack only bumps {!unmatched_pops} (never raises); an empty wall
    stack is the matching pop of a frame that slept across events, which
    its event window already rewound. *)

val charge : ?host:int -> ?frames:string list -> int -> unit
(** [charge ~host ~frames ns] attributes [ns] of virtual time to the node
    reached by descending [frames] from the top of [host]'s stack
    (creating nodes as needed). Call this synchronously where the time is
    charged, before any sleep. *)

val charge_root : ?host:int -> frames:string list -> int -> unit
(** Like {!charge} but always descends from the host root, ignoring the
    current stack — for asynchronous device time (NI servers) that should
    not nest under whatever application frame happens to be open. *)

val depth : host:int -> int
(** Current virtual stack depth for a host (0 when balanced). *)

val unmatched_pops : unit -> int
val hosts : unit -> int list

(** {2 Event windows (called by [Sim])} *)

val event_begin : label:string -> unit
(** An event thunk is about to run: open a fresh wall window under the
    [ev:<label>] kind node ([ev:event] when the label is empty). *)

val event_end : unit -> unit
(** The thunk returned: rewind wall frames it left open (counted in
    {!dangling}) and accumulate the per-kind event summary. *)

val dangling : unit -> int

(** {2 Event-queue histograms (reported by [Sim] when enabled)} *)

val observe_pop_cost : int -> unit
(** Heap operations needed to surface one live event (tombstones skipped
    plus sift swaps). *)

val observe_batch : int -> unit
(** Number of events fired at one identical timestamp. *)

val pop_cost_hist : unit -> (int * int) list
(** (cost, occurrences); the last bucket absorbs all larger costs. *)

val pop_cost_mean : unit -> float
val batch_size_hist : unit -> (int * int) list
val batch_size_mean : unit -> float

(** {2 Dumps} *)

type stacks = (string list * int) list
(** Paths from a root with their exclusive values, deterministic order
    (children in creation order); every root line is listed. *)

val virtual_stacks : unit -> stacks
(** Per host, exclusive virtual ns under [host<N>]; the root line carries
    the residual (idle/unattributed) time, so per host the values sum to
    {!elapsed}. *)

val stacks : unit -> stacks
(** Exclusive wall ns under [engine]; uncharged tail time (only while
    still enabled) shows as root-exclusive, so the sum tracks
    {!elapsed_wall_ns}. *)

val alloc_stacks : unit -> stacks
(** The wall tree with exclusive allocated words (minor + major direct)
    as values. *)

val folded : stacks -> string
(** Collapsed-stack text, [frame;frame;... <value>] per non-zero line:
    the format flamegraph.pl and speedscope ingest. *)

val write_folded : string -> stacks -> unit
(** [write_folded path stacks] writes {!folded} [stacks] to [path]. *)

val kind_summaries : unit -> (string * int * int * float) list
(** Per event kind: (label, events, wall ns, allocated words). *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable per-kind table plus queue histogram means. *)
