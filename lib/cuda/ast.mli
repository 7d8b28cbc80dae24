(** Abstract syntax for the CUDA C subset the framework transforms.

    The paper restricts supported inputs to stencil kernels over dense
    Cartesian grids with the common mapping: the CUDA grid covers the
    horizontal plane, a loop iterates the vertical dimension
    (Section 7, "Limitations"). The AST mirrors that subset:

    - kernels are [__global__ void] functions over pointer + scalar
      parameters;
    - statements are declarations, (compound) assignments, [if]/[else],
      canonical [for] loops ([for (int v = lo; v < hi; v += s)]),
      [__shared__] declarations with constant extents, [__syncthreads()]
      and [return];
    - expressions are arithmetic/logic over scalars, array indexing and
      a few math builtins.

    A {!program} couples the kernels with a host model: device arrays,
    scalar bindings and an invocation schedule. *)

type scalar_ty = Int | Double | Bool

type dim = X | Y | Z

type builtin_var = Thread_idx of dim | Block_idx of dim | Block_dim of dim | Grid_dim of dim

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not

type expr =
  | Int_lit of int
  | Double_lit of float
  | Var of string
  | Builtin of builtin_var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Index of string * expr list
      (** [Index (a, idxs)]: [a\[i0\]\[i1\]...]. Global arrays use a single
          linearized index; shared arrays use one index per declared
          dimension. *)
  | Call of string * expr list  (** math builtins: sqrt, fabs, min, max, exp, pow, fma *)
  | Ternary of expr * expr * expr

type lvalue = Lvar of string | Lindex of string * expr list

type stmt =
  | Decl of scalar_ty * string * expr option  (** [double t = e;] *)
  | Shared_decl of scalar_ty * string * int list  (** [__shared__ double s\[NY\]\[NX\];] *)
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | For of for_loop
  | Syncthreads
  | Return

and for_loop = {
  index : string;
  lo : expr;
  hi : expr;  (** exclusive upper bound: [index < hi] *)
  step : int;
  body : stmt list;
}

type qualifier = Const | Restrict

type param =
  | Array_param of { name : string; elem_ty : scalar_ty; quals : qualifier list }
  | Scalar_param of { name : string; ty : scalar_ty }

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

(** {1 Host model} *)

type array_decl = { a_name : string; a_elem_ty : scalar_ty; a_dims : int list }
(** Device-resident global array; [a_dims] is [\[nx; ny; nz\]] (innermost
    first: the linear index of (i,j,k) is [(k*ny + j)*nx + i]). *)

type arg =
  | Arg_array of string  (** host array name bound to a pointer param *)
  | Arg_int of int
  | Arg_double of float

type launch = {
  l_kernel : string;
  l_domain : int * int * int;  (** iteration domain covered by the CUDA grid *)
  l_block : int * int * int;
  l_args : arg list;
}

type host_op = Launch of launch | Copy_to_device of string | Copy_to_host of string

type program = {
  p_name : string;
  p_arrays : array_decl list;
  p_kernels : kernel list;
  p_schedule : host_op list;
}

(** {1 Utilities} *)

val grid_of_launch : launch -> int * int * int
(** Number of blocks per grid dimension: ceil-division of the launch
    domain by the block shape. *)

val find_kernel : program -> string -> kernel
(** Raises [Not_found]. *)

val find_array : program -> string -> array_decl

val array_cells : array_decl -> int

val scalar_bytes : scalar_ty -> int

val param_name : param -> string

val bind_args : kernel -> arg list -> (string * arg) list
(** Pair parameter names with launch arguments. Raises [Invalid_argument]
    on arity mismatch. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up rewriting: children first, then the node itself. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

val map_stmts : (stmt -> stmt) -> stmt list -> stmt list
(** Bottom-up over statement trees (children first). *)

val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a

val contains_barrier : stmt list -> bool
(** Some statement, at any depth, is [__syncthreads()]. *)

val contains_return : stmt list -> bool
(** Some statement, at any depth, is [return]. *)

val map_exprs_in_stmts : (expr -> expr) -> stmt list -> stmt list
(** Apply {!map_expr} to every expression position, including loop bounds
    and lvalue indices. *)

val fold_exprs_in_stmts : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** Fold over top-level expression positions (not their sub-expressions);
    combine with {!fold_expr} to reach leaves. *)

val rename_var : old:string -> fresh:string -> stmt list -> stmt list
(** Rename a scalar variable everywhere (declarations, uses, loop
    indices). Array names are not touched. *)

val rename_array : old:string -> fresh:string -> stmt list -> stmt list
(** Rename an array in every [Index]/[Lindex] position. *)

val arrays_read : stmt list -> string list
(** Names appearing in [Index] read position, deduplicated, in first-use
    order. Includes shared arrays; filter by the kernel's parameters to
    get global arrays only. *)

val arrays_written : stmt list -> string list

val referenced_arrays : kernel -> string list
(** Array parameters of the kernel actually used in its body. *)

val equal_expr : expr -> expr -> bool

val equal_stmts : stmt list -> stmt list -> bool

val equal_kernel : kernel -> kernel -> bool
