//! An append to a column whose buffer another column shares (a table
//! snapshot a scan holds, say) copies the buffer once, into one with room to
//! spare: the append that forced the copy, and the next ones, do not move
//! the column again. Allocations are counted per thread by a wrapper around
//! the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdb_storage::{Column, DataType, Value};

struct Counting;

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may be gone while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `run` makes on this thread.
fn allocations(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn one_append_to_a_shared_column_copies_it_once_with_room_to_spare() {
    const ROWS: usize = 1000;
    let values: Vec<Value> = (0..ROWS as i64).map(Value::Int).collect();
    let mut column = Column::from_values(DataType::Int, values).unwrap();
    let snapshot = column.clone();
    assert!(snapshot.shares_buffer(&column));

    let copies = allocations(|| column.push(Value::Int(-1)).unwrap());
    // The copy's buffer and the `Arc` around it; a copy at the old length
    // would take a third allocation, the append's reallocation.
    assert_eq!(copies, 2, "one buffer for the copy and the append");
    assert!(!snapshot.shares_buffer(&column), "the writer moved away");
    assert_eq!(snapshot.len(), ROWS);
    assert_eq!(column.len(), ROWS + 1);
    assert_eq!(column.value(ROWS).into_owned(), Value::Int(-1));

    let at = column.as_values().unwrap().as_ptr();
    let more = allocations(|| {
        for i in 0..ROWS as i64 - 1 {
            column.push(Value::Int(i)).unwrap();
        }
    });
    assert_eq!(more, 0, "the copy left room for as many again");
    assert_eq!(column.as_values().unwrap().as_ptr(), at);
    assert_eq!(column.len(), 2 * ROWS);

    // Extending a shared column by a longer column copies once as well.
    let mut short = Column::from_values(DataType::Int, vec![Value::Int(7)]).unwrap();
    let held = short.clone();
    let copies = allocations(|| short.extend(&column));
    assert_eq!(copies, 2);
    assert_eq!(short.len(), 2 * ROWS + 1);
    assert_eq!(held.len(), 1);
}
