(** Location-reporting policies: the other half of the reporting/paging
    tradeoff (§1.1 of the paper, and the classic schemes of Bar-Noy,
    Kessler & Sidi "Mobile users: to update or not to update?").

    A policy decides when a terminal sends a location report and, dually,
    which set of cells the system must consider when paging it:

    - [Area]: report on location-area boundary crossings; uncertainty =
      the reported area (GSM MAP / IS-41);
    - [Movement k]: report after every k cell changes; uncertainty = the
      hex disk of radius (moves since last report) around the last
      reported cell;
    - [Distance k]: report upon reaching hex distance k from the last
      reported cell; uncertainty = the disk of radius k − 1;
    - [Time k]: report every k ticks; uncertainty = the disk of radius
      (ticks since last report), since a terminal moves at most one cell
      per tick.

    The invariant every policy maintains: the terminal's true cell is
    always inside its uncertainty set. *)

type policy = Area | Movement of int | Distance of int | Time of int

(** Per-terminal tracking state. *)
type state

(** [init policy ~cell ~now] — state just after a report from [cell]. *)
val init : policy -> cell:int -> now:float -> state

val last_reported_cell : state -> int

(** [ticks_since_report state] — full ticks elapsed since the system
    last knew the terminal's exact cell; bounds its displacement. *)
val ticks_since_report : state -> int

(** [on_move policy ~areas ~hex state ~from_cell ~to_cell ~now] — called
    for every tick (with [from_cell = to_cell] when the terminal stayed
    put). Returns [true] when the move triggers a report; the state is
    updated either way (and reset on report). *)
val on_move :
  policy ->
  areas:Location_area.t ->
  hex:Hex.t ->
  state ->
  from_cell:int ->
  to_cell:int ->
  now:float ->
  bool

(** [uncertainty policy ~areas ~hex state ~now] — the cells the terminal
    may occupy, given the reports so far. Always contains the true cell. *)
val uncertainty :
  policy -> areas:Location_area.t -> hex:Hex.t -> state -> now:float -> int array

(** [observe_page state ~cell ~now] — a successful page revealed the
    terminal's exact cell; equivalent to a fresh report from there. *)
val observe_page : state -> cell:int -> now:float -> unit

(** [snapshot state] — an immutable copy of the tracking state, taken
    before an {!on_move} whose report might be lost in transit. *)
val snapshot : state -> state

(** [rollback state ~snapshot ~moved] — undo a report the network never
    received: the anchor (last reported cell and time) reverts to
    [snapshot]'s, while this tick's bookkeeping is re-applied (one more
    tick, one more move when [moved]), so the terminal keeps
    accumulating toward its next report exactly as if the trigger had
    not fired. Note that a lost [Area] report breaks the containment
    invariant — the terminal is in a new area the network doesn't know
    about — which is precisely the staleness the fault layer injects;
    with a fault model, the paging loop counts devices outside their
    uncertainty set as residual misses. *)
val rollback : state -> snapshot:state -> moved:bool -> unit

(** [validate policy] — parameter sanity ([k ≥ 1]). *)
val validate : policy -> (unit, string) result

val to_string : policy -> string
