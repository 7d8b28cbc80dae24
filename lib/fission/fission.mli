(** Kernel fission (Section 4.1, Algorithm 2).

    A kernel is split into sub-kernels such that each data array — and
    every operation acting on it — lives in exactly one sub-kernel. The
    partition is given by the connected components of the array
    dependence graph ({!Kft_analysis.Deps}); a kernel whose graph is
    connected has no separable arrays and is not fissionable.

    Algorithm 2 enumerates components by BFS from random roots; the
    resulting component sets are independent of the root order, but we
    honour the seeded shuffle so the part *numbering* follows the
    algorithm faithfully. *)

type part = {
  part_kernel : Kft_cuda.Ast.kernel;
  part_arrays : string list;  (** array parameter names owned by this part *)
}

type plan = {
  original : Kft_cuda.Ast.kernel;
  parts : part list;  (** two or more; in (seeded) component order *)
}

val fissionable : Kft_cuda.Ast.kernel -> bool
(** True when the array dependence graph has >= 2 components. *)

val plan : ?seed:int -> Kft_cuda.Ast.kernel -> plan option
(** [None] when the kernel is not fissionable. Part [i] is named
    ["<kernel>__f<i>"]. Each part keeps the original control skeleton
    (guards, loops) restricted to the statements touching its arrays;
    scalar declarations not used by the kept statements are pruned;
    unreferenced parameters are dropped. *)

val split_launch : Kft_cuda.Ast.kernel -> plan -> Kft_cuda.Ast.launch -> Kft_cuda.Ast.launch list
(** Rewrite a launch of the original kernel into the launches of its
    parts (same domain and block; argument lists filtered per part).
    Raises [Invalid_argument] when the launch does not invoke the
    plan's original kernel. *)

val name_clash : Kft_cuda.Ast.program -> plan -> string option
(** The first part name of the plan that already names a kernel of the
    program, if any: such a plan cannot be applied. *)

val apply_to_program : plans:(string * plan) list -> Kft_cuda.Ast.program -> Kft_cuda.Ast.program
(** Replace each planned kernel by its parts, rewriting the schedule.
    Raises [Invalid_argument] naming the part when a plan has a
    {!name_clash} with the program. *)

val iterate_plan : ?seed:int -> Kft_cuda.Ast.kernel -> plan option
(** Apply fission iteratively until no part has separable arrays left
    (the paper applies fission "iteratively as long as there is at least
    one separable data array", Section 5.5). With the component-based
    split a single pass is already maximal; this entry point re-checks
    and re-splits parts defensively and is used by tests as an oracle. *)
