type t = {
  pages : int array array;
  globals_end : int;
  heap_base : int;
  stack_base : int;
}

type fault = Null_access | Out_of_range of int

exception Fault of fault

let null_guard = Program.null_guard_words

let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* Every page of every memory starts as this one. It is never written:
   [write_valid] swaps a fresh page in before its first store, so an
   untouched page costs one pointer, not [page_words] words. *)
let zero_page = Array.make page_words 0

let create ~globals_words ~heap_words ~stack_words =
  let globals_end = null_guard + globals_words in
  let heap_base = globals_end in
  let stack_base = heap_base + heap_words + stack_words in
  let page_count = (stack_base + page_mask) lsr page_bits in
  { pages = Array.make page_count zero_page; globals_end; heap_base; stack_base }

let size mem = mem.stack_base

let is_valid mem addr = addr >= null_guard && addr < mem.stack_base

let fault_at addr =
  if addr >= 0 && addr < null_guard then Null_access else Out_of_range addr

let check mem addr = if not (is_valid mem addr) then raise (Fault (fault_at addr))

let[@inline always] read_valid mem addr =
  Array.unsafe_get
    (Array.unsafe_get mem.pages (addr lsr page_bits))
    (addr land page_mask)

let read mem addr =
  check mem addr;
  read_valid mem addr

(* Out of line: a page's first store is rare, and [write_valid] is inlined
   into every store site of the fast tier. *)
let[@inline never] write_fresh_page mem addr value =
  let page = Array.make page_words 0 in
  Array.unsafe_set page (addr land page_mask) value;
  Array.unsafe_set mem.pages (addr lsr page_bits) page

let[@inline always] write_valid mem addr value =
  let page = Array.unsafe_get mem.pages (addr lsr page_bits) in
  if page == zero_page then write_fresh_page mem addr value
  else Array.unsafe_set page (addr land page_mask) value

let write mem addr value =
  check mem addr;
  write_valid mem addr value

let fault_to_string = function
  | Null_access -> "null access"
  | Out_of_range addr -> Printf.sprintf "out-of-range access at %d" addr

let load_init mem init_data = List.iter (fun (a, v) -> write mem a v) init_data
