"""cli.write_matrix_csv's row text, in a module that imports no package.
As `python -I -S _csv_rows.py COLS` it formats the float64 rows on stdin,
then writes all the text, as its parent reads it only after its own rows."""
import sys

BLOCK_ROWS = 64


def csv_blocks(flat, rows: int, cols: int):
    """Yield the "%.17g" CSV text of `rows` rows of `cols` values of the
    flat array or memoryview `flat`, BLOCK_ROWS rows per `%` operation."""
    line = ",".join(["%.17g"] * cols) + "\n"
    for i in range(0, rows, BLOCK_ROWS):
        n = min(BLOCK_ROWS, rows - i)
        yield line * n % tuple(flat[i * cols:(i + n) * cols].tolist())


if __name__ == "__main__":
    cols = int(sys.argv[1])
    flat = memoryview(sys.stdin.buffer.read()).cast("d")
    text = "".join(csv_blocks(flat, len(flat) // cols, cols))
    sys.stdout.buffer.write(text.encode("ascii"))
