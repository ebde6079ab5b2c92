"""Structural validators."""

import numpy as np
import pytest

from repro.core import (
    analyze_dependencies,
    block_mapping,
    partition_factor,
    wrap_assignment,
)

from .validators import (
    ValidationError,
    validate_assignment,
    validate_dependencies,
    validate_partition,
)


class TestValidatePartition:
    def test_valid_partition_passes(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        validate_partition(part)

    def test_detects_extent_violation(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        u = int(np.argmax(part.unit_work))
        assert part.unit_work[u] > 1
        # Shrink the unit so an owned element falls outside.
        rows_owned = prepared_grid.pattern.rowidx[part.unit_elements(u)]
        part.row_hi[u] = rows_owned.max() - 1
        with pytest.raises(ValidationError, match="outside"):
            validate_partition(part)

    def test_detects_unit_leaving_its_cluster(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        u = int(part.unit_ptr[1])  # first unit of the second cluster
        part.col_lo[u] -= 1
        with pytest.raises(ValidationError):
            validate_partition(part)


class TestValidateDependencies:
    def test_valid_deps_pass(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        deps = analyze_dependencies(part, prepared_grid.updates)
        validate_dependencies(deps)

    def test_detects_cycle(self, prepared_grid):
        part = partition_factor(prepared_grid.pattern, grain=4, min_width=2)
        deps = analyze_dependencies(part, prepared_grid.updates)
        if len(deps.edges) == 0:
            pytest.skip("no edges")
        e = deps.edges.copy()
        e = np.vstack([e, e[:1, ::-1]])  # add a reverse edge -> cycle
        deps.edges = e
        with pytest.raises(ValidationError):
            validate_dependencies(deps)


class TestValidateAssignment:
    def test_valid_block_assignment(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        validate_assignment(r.assignment)

    def test_valid_wrap_assignment(self, prepared_grid):
        validate_assignment(wrap_assignment(prepared_grid.pattern, 4))

    def test_detects_owner_mismatch(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        r.assignment.owner_of_element = r.assignment.owner_of_element.copy()
        r.assignment.owner_of_element[0] = (
            r.assignment.owner_of_element[0] + 1
        ) % 4
        with pytest.raises(ValidationError, match="disagree"):
            validate_assignment(r.assignment)
