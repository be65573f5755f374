(** Allocation-free solver hot path on flat unboxed float arrays.

    This is the one production implementation of the fast solvers:
    {!Greedy}, {!Bandwidth}, {!Single}, {!Yellow_pages} and every
    fast {!Solver} spec run here. An arena pre-sizes every scratch
    buffer the Fig. 1 order DP, the coarse metro-scale DP and the local
    search need, and reuses them across solves: after a [prepare_*]
    call the [run_*] entry points allocate zero minor-heap words
    ([Gc.minor_words] delta = 0), which the GC-regression tests and
    bench e30 gate. All float state lives in [floatarray]s and scalar
    results travel through arena slots because ocamlopt boxes floats
    that cross non-inlined function boundaries.

    Every computation is an op-for-op mirror of the list reference
    ([Order_dp], [Strategy], [Local_search]), so results are
    bit-identical; the reference stays in the library as the
    independent differential oracle (test_flat). DESIGN §13 documents
    the arena layout and the prefix-product invariants. *)

type t

(** [create ()] is an empty arena; buffers grow on first [prepare_*]. *)
val create : unit -> t

(** [domain_arena ()] is this domain's private arena (domain-local
    storage), the default scratch of every production solve.

    Invariant: at most one solve runs on a domain at a time. The arena
    is not reentrant and not safe to share between systhreads of one
    domain; a solve started while another is mid-flight on the same
    domain would corrupt both. The Runner's raced stages, serve worker
    lanes and sweep shards each run on their own domain, and solver
    results never alias arena scratch, so sequential reuse is safe. *)
val domain_arena : unit -> t

(** [prepare_coarse ?block a inst] binds the arena to [inst] (rejecting
    [m = 0] / [c = 0] with a named error), computes the non-increasing
    cell-weight order of §4.2.2 and the arena's one prefix success
    table, evaluated at every [block]-th cell of that order (default
    block 16; [block < 1] is rejected). The table entries are
    bit-identical to the reference prefix table at those boundaries:
    skipped success evaluations never touch the per-device compensated
    mass chains. The O(m·c) pass is cached while the same instance
    (physical equality), objective, order and block stay bound; preparing
    another block or order replaces the table. *)
val prepare_coarse :
  ?objective:Objective.t -> ?block:int -> t -> Instance.t -> unit

(** [prepare ?objective a inst] is [prepare_coarse ~block:1]: the full
    prefix table over the weight order, which every [run_*] accepts. *)
val prepare : ?objective:Objective.t -> t -> Instance.t -> unit

(** [prepare_order a inst ~order] builds the full (block 1) table over a
    caller-supplied cell order (the §5 "any predefined sequence"
    remark). Raises the same [Invalid_argument] errors as
    [Order_dp.solve] on a bad order. *)
val prepare_order :
  ?objective:Objective.t -> t -> Instance.t -> order:int array -> unit

(** {1 Allocation-free cores}

    Each raises a named "arena not prepared" [Invalid_argument] unless
    the prepared table suits it; results are read back with the
    accessors below. Zero minor-heap words per call. *)

(** The Fig. 1 DP over the prepared order; [max_group] is the §5
    bandwidth bound. Mirrors [Order_dp.solve] bit for bit. Requires a
    block-1 table ({!prepare}, {!prepare_order} or [prepare_coarse
    ~block:1]). *)
val run_order_dp : ?cancel:Cancel.t -> ?max_group:int -> t -> unit

(** The §4.2.2 greedy heuristic: the DP over the weight order. Requires
    a block-1 table over the weight order ({!prepare}, not
    {!prepare_order}). *)
val run_greedy : ?cancel:Cancel.t -> t -> unit

(** The DP over the prepared block boundaries, mirror of
    [Order_dp.solve_coarse]; requires a table over the weight order at
    any block ({!prepare_coarse} or {!prepare}). Per-solve cost is
    O(d·(c/block)²) — the metro-scale path. At block 1 it is
    {!run_greedy}. *)
val run_coarse : ?cancel:Cancel.t -> t -> unit

(** The one-round page-everything strategy; EP = c exactly. *)
val run_page_all : t -> unit

(** Steepest-descent hill climb seeded from the greedy cut — an
    op-for-op mirror of [Local_search.hill_climb] including its
    apply/evaluate/revert float drift, hence bit-identical. Requires
    what {!run_greedy} does. *)
val run_hill_climb : ?cancel:Cancel.t -> t -> unit

(** {1 Result accessors} *)

(** Expected paging of the last [run_*]. *)
val ep : t -> float

(** Number of groups of the last [run_*]. *)
val rounds : t -> int

(** Size of group [r] (cells, also on the coarse path). *)
val size_at : t -> int -> int

(** Move evaluations of the last hill climb. *)
val iterations : t -> int

(** Copy of the currently prepared cell order. *)
val current_order : t -> int array

(** {1 Allocating conveniences}

    One-call wrappers: prepare, run, and box the result in the reference
    record types (strategies are rebuilt exactly as the reference solvers
    build them, preserving bit-identity end to end). *)

val greedy :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Order_dp.result

val order_dp :
  ?objective:Objective.t -> ?max_group:int -> ?cancel:Cancel.t ->
  t -> Instance.t -> order:int array -> Order_dp.result

val bandwidth :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t -> b:int ->
  Order_dp.result

val coarse :
  ?objective:Objective.t -> ?block:int -> ?cancel:Cancel.t ->
  t -> Instance.t -> Order_dp.result

val hill_climb :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Local_search.result
